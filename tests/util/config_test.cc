#include "src/util/config.h"

#include <gtest/gtest.h>

namespace cxl {
namespace {

TEST(ConfigTest, ParsesEqualsAndSpaceForms) {
  const auto cfg = Config::ParseString("a = 1\nb 2\nc=hello\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->values().at("a"), "1");
  EXPECT_EQ(cfg->values().at("b"), "2");
  EXPECT_EQ(cfg->values().at("c"), "hello");
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  const auto cfg = Config::ParseString("# header\n\na = 1  # trailing\n   \n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->values().at("a"), "1");
  EXPECT_EQ(cfg->values().size(), 1u);
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
