#include "src/util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace cxl {
namespace {

TEST(TableTest, PrintsHeaderAndRows) {
  Table t({"config", "throughput", "slowdown"});
  t.Row().Cell("MMEM").Cell(100.0, 1).Cell(1.0, 2);
  t.Row().Cell("1:1").Cell(74.1, 1).Cell(1.35, 2);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("config"), std::string::npos);
  EXPECT_NE(out.find("MMEM"), std::string::npos);
  EXPECT_NE(out.find("74.1"), std::string::npos);
  EXPECT_NE(out.find("1.35"), std::string::npos);
}

TEST(TableTest, PadsEachColumnToItsWidestCell) {
  Table t({"a", "b"});
  t.Row().Cell(uint64_t{1}).Cell(uint64_t{22});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(), "a  b   \n-------\n1  22  \n");
}

TEST(TableTest, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.row_count(), 0u);
  t.Row().Cell("1");
  t.Row().Cell("2");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(67.0, 1), "67.0");
}

TEST(PrintSectionTest, Format) {
  std::ostringstream os;
  PrintSection(os, "Fig 3(a)");
  EXPECT_EQ(os.str(), "\n== Fig 3(a) ==\n");
}

}  // namespace
}  // namespace cxl
