#include "src/mem/access.h"

#include <gtest/gtest.h>

#include "tests/mem/memory_path_printer.h"

namespace cxl::mem {
namespace {

TEST(AccessMixTest, Factories) {
  EXPECT_DOUBLE_EQ(AccessMix::ReadOnly().read_fraction, 1.0);
  EXPECT_DOUBLE_EQ(AccessMix::WriteOnly().read_fraction, 0.0);
  EXPECT_DOUBLE_EQ(AccessMix::Ratio(2, 1).read_fraction, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(AccessMix::Ratio(1, 1).read_fraction, 0.5);
  EXPECT_DOUBLE_EQ(AccessMix::Ratio(1, 3).read_fraction, 0.25);
}

TEST(AccessMixTest, WriteFractionComplements) {
  const AccessMix m = AccessMix::Ratio(3, 1);
  EXPECT_DOUBLE_EQ(m.read_fraction + m.write_fraction(), 1.0);
}

TEST(MixLabelTest, NamedRatios) {
  EXPECT_EQ(MixLabel(AccessMix::ReadOnly()), "1:0");
  EXPECT_EQ(MixLabel(AccessMix::WriteOnly()), "0:1");
  EXPECT_EQ(MixLabel(AccessMix::Ratio(2, 1)), "2:1");
  EXPECT_EQ(MixLabel(AccessMix::Ratio(1, 2)), "1:2");
  EXPECT_EQ(MixLabel(AccessMix::Ratio(3, 1)), "3:1");
}

TEST(MixLabelTest, FallbackPercentage) {
  EXPECT_EQ(MixLabel(AccessMix{0.9, true}), "R90%");
}

TEST(PathLabelTest, AllPaths) {
  EXPECT_EQ(PathLabel(MemoryPath::kLocalDram), "MMEM");
  EXPECT_EQ(PathLabel(MemoryPath::kRemoteDram), "MMEM-r");
  EXPECT_EQ(PathLabel(MemoryPath::kLocalCxl), "CXL");
  EXPECT_EQ(PathLabel(MemoryPath::kRemoteCxl), "CXL-r");
  EXPECT_EQ(PathLabel(MemoryPath::kSsd), "SSD");
}

}  // namespace
}  // namespace cxl::mem
