#include "src/util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cxl {
namespace {

// Owns mutable copies of an argv, as main() receives it.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& s : storage) {
      ptrs.push_back(s.data());
    }
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

// A table with a value flag, a switch, an aliased number and a repeatable
// flag, writing into the fields below.
struct Tool {
  std::string out;
  bool verbose = false;
  unsigned count = 0;
  std::vector<std::string> excludes;

  Usage Parse(Argv& a, const std::string& positionals = "") {
    return ParseFlags(&a.argc, a.ptrs.data(),
                      {{"--out", "FILE", Store(&out), "output file"},
                       {"--verbose", "", Store(&verbose), "say more"},
                       {"--count", "N", Store(&count), "how many", "-n"},
                       {"--exclude", "SUBSTR",
                        [this](const std::string& value) {
                          excludes.push_back(value);
                          return Status::Ok();
                        },
                        "skip SUBSTR (repeatable)"}},
                      positionals);
  }
};

TEST(FlagsTest, ParseNumberWantsTheWholeString) {
  double d = -1.0;
  EXPECT_TRUE(ParseNumber("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(ParseNumber("1e-4", &d));
  EXPECT_DOUBLE_EQ(d, 1e-4);
  EXPECT_FALSE(ParseNumber("3.2x", &d));
  EXPECT_FALSE(ParseNumber("", &d));
  EXPECT_DOUBLE_EQ(d, 1e-4);  // Untouched on failure.
  int n = 0;
  EXPECT_TRUE(ParseNumber("8", &n));
  EXPECT_EQ(n, 8);
  EXPECT_FALSE(ParseNumber("8x", &n));
  EXPECT_FALSE(ParseNumber("99999999999", &n));
}

TEST(FlagsTest, ValueFlagsTakeBothFormsAndPositionalsStayInArgv) {
  Tool tool;
  Argv a({"tool", "--out=a.json", "first", "--verbose", "--count", "3", "second"});
  tool.Parse(a, "[ARGS...]");
  EXPECT_EQ(tool.out, "a.json");
  EXPECT_TRUE(tool.verbose);
  EXPECT_EQ(tool.count, 3u);
  ASSERT_EQ(a.argc, 3);
  EXPECT_STREQ(a.ptrs[1], "first");
  EXPECT_STREQ(a.ptrs[2], "second");
}

TEST(FlagsTest, ShortAliasTakesSeparateAndAttachedValues) {
  Tool separate;
  Argv a({"tool", "-n", "5"});
  separate.Parse(a);
  EXPECT_EQ(separate.count, 5u);
  Tool attached;
  Argv b({"tool", "-n7"});
  attached.Parse(b);
  EXPECT_EQ(attached.count, 7u);
}

TEST(FlagsTest, RepeatableFlagAppliesEveryValueInOrder) {
  Tool tool;
  Argv a({"tool", "--exclude", "gen/", "--exclude=third_party"});
  tool.Parse(a);
  EXPECT_EQ(tool.excludes, (std::vector<std::string>{"gen/", "third_party"}));
}

TEST(FlagsTest, UsageIsGeneratedFromTheTable) {
  Tool tool;
  Argv a({"/path/to/tool"});
  EXPECT_EQ(tool.Parse(a, "[SPEC]").text(),
            "usage: tool [flags] [SPEC]\n"
            "  --out FILE                output file\n"
            "  --verbose                 say more\n"
            "  --count N, -n N           how many\n"
            "  --exclude SUBSTR          skip SUBSTR (repeatable)\n"
            "  --help, -h                print this usage and exit\n");
}

TEST(FlagsTest, OneOfStoresTheNamedChoice) {
  int level = 0;
  const FlagSetter set = OneOf(&level, std::vector<std::pair<std::string, int>>{{"low", 1},
                                                                                {"high", 2}});
  EXPECT_TRUE(set("high").ok());
  EXPECT_EQ(level, 2);
  const Status bad = set("medium");
  EXPECT_EQ(bad.message(), "want one of low, high");
  EXPECT_EQ(level, 2);
}

TEST(FlagsTest, FindAndApplyServeNamesOutsideArgv) {
  double rd = 10.0;
  const std::vector<Flag> keys = {{"rd", "X", Store(&rd), "a spec key"}};
  ASSERT_NE(FindFlag(keys, "rd"), nullptr);
  EXPECT_EQ(FindFlag(keys, "rc"), nullptr);
  EXPECT_TRUE(ApplyFlag(keys[0], "rd", "12.5").ok());
  EXPECT_DOUBLE_EQ(rd, 12.5);
  EXPECT_EQ(ApplyFlag(keys[0], "rd", "12x").message(), "bad value '12x' for 'rd': want a number");
  EXPECT_EQ(ApplyFlag(keys[0], "rd", "").message(), "'rd' needs a value (X)");
}

TEST(FlagsDeathTest, UnknownFlagExitsWithUsage) {
  Tool tool;
  Argv typo({"tool", "--outt", "a.json"});
  EXPECT_EXIT(tool.Parse(typo), ::testing::ExitedWithCode(2),
              "^tool: unknown flag '--outt'\nusage: tool \\[flags\\]\n  --out FILE");
  // A short flag is its first letter; the rest is its value.
  Argv short_typo({"tool", "-x5"});
  EXPECT_EXIT(tool.Parse(short_typo), ::testing::ExitedWithCode(2), "unknown flag '-x'");
}

TEST(FlagsDeathTest, MissingValueExits) {
  Tool tool;
  Argv trailing({"tool", "--verbose", "--out"});
  EXPECT_EXIT(tool.Parse(trailing), ::testing::ExitedWithCode(2),
              "'--out' needs a value \\(FILE\\)");
  Argv trailing_alias({"tool", "-n"});
  EXPECT_EXIT(tool.Parse(trailing_alias), ::testing::ExitedWithCode(2), "'-n' needs a value");
}

// An empty value would silently drop what the flag asks for (an output
// file, a baseline), so every value form rejects it.
TEST(FlagsDeathTest, EmptyValueExits) {
  Tool tool;
  Argv attached({"tool", "--out="});
  EXPECT_EXIT(tool.Parse(attached), ::testing::ExitedWithCode(2), "'--out' needs a value");
  Argv separate({"tool", "--out", ""});
  EXPECT_EXIT(tool.Parse(separate), ::testing::ExitedWithCode(2), "'--out' needs a value");
  Argv repeatable({"tool", "--exclude=a", "--exclude="});
  EXPECT_EXIT(tool.Parse(repeatable), ::testing::ExitedWithCode(2), "'--exclude' needs a value");
}

TEST(FlagsDeathTest, StrayPositionalExits) {
  Tool tool;
  Argv stray({"tool", "--verbose", "extra"});
  EXPECT_EXIT(tool.Parse(stray), ::testing::ExitedWithCode(2),
              "^tool: unexpected argument 'extra'\n");
}

TEST(FlagsDeathTest, BadValuesExitNamingTheFlag) {
  Tool tool;
  Argv count({"tool", "--count=-1"});
  EXPECT_EXIT(tool.Parse(count), ::testing::ExitedWithCode(2),
              "bad value '-1' for '--count': want a non-negative integer");
  Argv alias({"tool", "-nx"});
  EXPECT_EXIT(tool.Parse(alias), ::testing::ExitedWithCode(2), "bad value 'x' for '-n'");
  Argv switch_value({"tool", "--verbose=1"});
  EXPECT_EXIT(tool.Parse(switch_value), ::testing::ExitedWithCode(2),
              "'--verbose' takes no value");
}

TEST(FlagsDeathTest, HelpExitsZeroBeforeLaterArguments) {
  Tool tool;
  Argv help({"tool", "--help", "--bogus"});
  EXPECT_EXIT(tool.Parse(help), ::testing::ExitedWithCode(0), "^$");
  Argv short_help({"tool", "-h"});
  EXPECT_EXIT(tool.Parse(short_help), ::testing::ExitedWithCode(0), "^$");
}

}  // namespace
}  // namespace cxl
