#include "src/util/config.h"

#include <gtest/gtest.h>

namespace cxl {
namespace {

TEST(ConfigTest, ParsesEqualsAndSpaceForms) {
  const auto cfg = Config::ParseString("a = 1\nb 2\nc=hello\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->Find("a")->value, "1");
  EXPECT_EQ(cfg->Find("b")->value, "2");
  EXPECT_EQ(cfg->Find("c")->value, "hello");
  EXPECT_EQ(cfg->Find("d"), nullptr);
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  const auto cfg = Config::ParseString("# header\n\na = 1  # trailing\n   \n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->Find("a")->value, "1");
  EXPECT_EQ(cfg->rows().size(), 1u);
}

TEST(ConfigTest, RowsKeepFileOrderAndLineNumbers) {
  const auto cfg = Config::ParseString("zeta = 1\n# comment\n\nalpha = 2\nmid 3\n");
  ASSERT_TRUE(cfg.ok());
  ASSERT_EQ(cfg->rows().size(), 3u);
  EXPECT_EQ(cfg->rows()[0].key, "zeta");
  EXPECT_EQ(cfg->rows()[0].line, 1u);
  EXPECT_EQ(cfg->rows()[1].key, "alpha");
  EXPECT_EQ(cfg->rows()[1].line, 4u);
  EXPECT_EQ(cfg->rows()[2].key, "mid");
  EXPECT_EQ(cfg->rows()[2].value, "3");
  EXPECT_EQ(cfg->rows()[2].line, 5u);
}

TEST(ConfigTest, RejectsMalformedRows) {
  EXPECT_FALSE(Config::ParseString("loneword\n").ok());
  EXPECT_FALSE(Config::ParseString("= value\n").ok());
  EXPECT_FALSE(Config::ParseString("key =\n").ok());
}

TEST(ConfigTest, RejectsDuplicateKeys) {
  const auto cfg = Config::ParseString("a = 1\na = 2\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("duplicate"), std::string::npos);
}

TEST(ConfigTest, ErrorsCarryLineNumbers) {
  const auto cfg = Config::ParseString("a = 1\nbad\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace cxl
