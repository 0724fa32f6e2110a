#include "src/bench/context.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cxl::bench {
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

// Parses with every optional flag group declared.
Context Parse(Argv& a, std::string positionals = "") {
  return Context::FromArgs(
      &a.argc, a.ptrs.data(),
      {.jobs = true, .faults = true, .fault_tuning = true, .tiering = true}, {},
      std::move(positionals));
}

TEST(ContextTest, JobsParsesAndStripsTheFlag) {
  {
    Argv a({"bench", "--jobs", "4", "positional"});
    EXPECT_EQ(Parse(a, "[ARG]").jobs(), 4);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.ptrs[1], "positional");
  }
  {
    Argv a({"bench", "--jobs=8"});
    EXPECT_EQ(Parse(a).jobs(), 8);
    EXPECT_EQ(a.argc, 1);
  }
  {
    Argv a({"bench", "-j", "2"});
    EXPECT_EQ(Parse(a).jobs(), 2);
    EXPECT_EQ(a.argc, 1);
  }
  {
    Argv a({"bench", "Rd", "Rc"});
    EXPECT_EQ(Parse(a, "[Rd Rc]").jobs(), 0);  // Absent -> auto.
    EXPECT_EQ(a.argc, 3);                      // Positional args untouched.
  }
}

TEST(ContextDeathTest, JobsCompactForm) {
  {
    Argv a({"bench", "-j6", "positional"});
    EXPECT_EQ(Parse(a, "[ARG]").jobs(), 6);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.ptrs[1], "positional");
  }
  // A malformed compact form is a bad -j value, not an argument left over
  // for someone else.
  Argv a({"bench", "-junk"});
  EXPECT_EXIT(Parse(a), ::testing::ExitedWithCode(2), "bad value 'unk' for '-j'");
  Argv zero({"bench", "-j0"});
  EXPECT_EXIT(Parse(zero), ::testing::ExitedWithCode(2), "bad value '0' for '-j'");
}

TEST(ContextDeathTest, JobsMissingValueExits) {
  // A trailing `--jobs` is reported, never treated as auto.
  Argv a({"bench", "--jobs"});
  EXPECT_EXIT(Parse(a), ::testing::ExitedWithCode(2), "'--jobs' needs a value");
}

TEST(ContextDeathTest, JobsMalformedValueExitsWithUsage) {
  // `--jobs=abc` never degrades to auto: one line naming the value, then usage.
  Argv abc({"bench", "--jobs=abc"});
  EXPECT_EXIT(Parse(abc), ::testing::ExitedWithCode(2),
              "bench: bad value 'abc' for '--jobs': want a positive integer\n"
              "usage: bench \\[flags\\]\n");
}

TEST(ContextDeathTest, JobsMalformedValueExits) {
  Argv negative({"bench", "-j", "-3"});
  EXPECT_EXIT(Parse(negative), ::testing::ExitedWithCode(2), "bad value '-3' for '-j'");
  // A later valid flag does not rescue an earlier bad one.
  Argv rescued({"bench", "--jobs=abc", "--jobs=4"});
  EXPECT_EXIT(Parse(rescued), ::testing::ExitedWithCode(2), "bad value 'abc' for '--jobs'");
}

TEST(BenchTelemetryTest, NoFlagsMeansDisabledNullSink) {
  Argv a({"bench", "--jobs", "4"});
  Context ctx = Parse(a);
  EXPECT_FALSE(ctx.telemetry().enabled());
  EXPECT_EQ(ctx.sink(), nullptr);
  EXPECT_EQ(ctx.jobs(), 4);
}

TEST(BenchTelemetryTest, StripsEqualsAndSeparateForms) {
  Argv a({"bench", "--metrics-out=m.json", "--trace-out", "t.json", "--bench-json=b.json",
          "--events-out", "e.jsonl", "--events-ring=64", "--jobs", "2"});
  Context ctx = Parse(a);
  const telemetry::BenchTelemetry::Outputs& outputs = ctx.telemetry().outputs();
  EXPECT_TRUE(ctx.telemetry().enabled());
  EXPECT_NE(ctx.sink(), nullptr);
  EXPECT_EQ(outputs.metrics_path, "m.json");
  EXPECT_EQ(outputs.trace_path, "t.json");
  EXPECT_EQ(outputs.bench_json_path, "b.json");
  EXPECT_EQ(outputs.events_path, "e.jsonl");
  EXPECT_EQ(outputs.events_ring, 64u);
  EXPECT_EQ(ctx.jobs(), 2);
  EXPECT_EQ(a.argc, 1);
}

TEST(ContextTest, NoFlagsIsInert) {
  Argv a({"bench"});
  Context ctx = Parse(a);
  EXPECT_EQ(ctx.jobs(), 0);
  EXPECT_FALSE(ctx.faults_enabled());
  EXPECT_EQ(ctx.fault_seed(), 1u);
  EXPECT_TRUE(ctx.tiering_policy().empty());
  EXPECT_EQ(ctx.profiler(), nullptr);
}

TEST(ContextTest, FaultAndPolicyFlagsReachTheEnv) {
  Argv a({"bench", "--faults=storm", "--fault-seed", "7", "--fault-knob",
          "fault.shed_fraction=0.25", "--tiering-policy=tpp-like", "--profile-epochs"});
  Context ctx = Parse(a);
  EXPECT_TRUE(ctx.faults_enabled());
  EXPECT_EQ(ctx.fault_seed(), 7u);
  EXPECT_DOUBLE_EQ(ctx.knobs().Get("fault.shed_fraction"), 0.25);
  EXPECT_NE(ctx.profiler(), nullptr);
  const core::ExperimentEnv env = ctx.Env(3);
  EXPECT_EQ(env.seed, 3u);
  EXPECT_EQ(env.fault_seed, 7u);
  EXPECT_EQ(env.tiering_policy, "tpp-like");
  EXPECT_FALSE(env.faults.empty());
}

TEST(ContextTest, OwnFlagsJoinTheTable) {
  bool fails_only = false;
  std::string level;
  std::vector<Flag> own = {
      {"--fails", "",
       [&fails_only](const std::string&) {
         fails_only = true;
         return Status::Ok();
       },
       "print only violated bands"},
      {"--level", "NAME",
       [&level](const std::string& value) {
         level = value;
         return Status::Ok();
       },
       "a test flag"}};
  Argv a({"bench", "--fails", "--level=high", "-j3"});
  const Context ctx = Context::FromArgs(&a.argc, a.ptrs.data(), {.jobs = true}, own);
  EXPECT_TRUE(fails_only);
  EXPECT_EQ(level, "high");
  EXPECT_EQ(ctx.jobs(), 3);
  EXPECT_EQ(a.argc, 1);
}

TEST(ContextDeathTest, UnknownFlagsAndPositionalsExitWithUsage) {
  Argv typo({"bench", "--fault-sed", "7"});
  EXPECT_EXIT(Parse(typo), ::testing::ExitedWithCode(2),
              "bench: unknown flag '--fault-sed'\nusage: bench \\[flags\\]\n  --jobs N, -j N");
  Argv ring({"bench", "--events-ring", "x"});
  EXPECT_EXIT(Parse(ring), ::testing::ExitedWithCode(2), "bad value 'x' for '--events-ring'");
  // The generic cases (a stray positional, a missing or empty value, a
  // switch given a value) are FlagsDeathTest's; one of them here checks
  // that the telemetry outputs are value flags of the shared parser.
  Argv empty({"bench", "--metrics-out="});
  EXPECT_EXIT(Parse(empty), ::testing::ExitedWithCode(2), "'--metrics-out' needs a value");
}

// A binary that does not declare a group rejects its flags, and its usage
// does not list them; each group is declared on its own.
TEST(ContextDeathTest, UndeclaredGroupsRejectTheirFlags) {
  const auto parse = [](Argv& a, FlagGroups groups) {
    return Context::FromArgs(&a.argc, a.ptrs.data(), groups);
  };
  for (const std::string name :
       {"--jobs", "--faults", "--fault-seed", "--fault-knob", "--tiering-policy"}) {
    Argv a({"bench", name, "x"});
    EXPECT_EXIT(parse(a, {}), ::testing::ExitedWithCode(2),
                "bench: unknown flag '" + name + "'\nusage: bench \\[flags\\]\n");
  }
  Argv short_jobs({"bench", "-j4"});
  EXPECT_EXIT(parse(short_jobs, {.faults = true}), ::testing::ExitedWithCode(2),
              "unknown flag '-j'");
  // The usage ends at the shared flags, then the parser's --help.
  Argv bad({"bench", "--jobs=x"});
  EXPECT_EXIT(parse(bad, {}), ::testing::ExitedWithCode(2),
              "--profile-epochs +per-phase wall-clock breakdown of the epoch hot path, on "
              "stderr\n  --help, -h +print this usage and exit\n$");
  Argv tiering({"bench", "--tiering-policy", "tpp-like"});
  EXPECT_EXIT(parse(tiering, {.faults = true}), ::testing::ExitedWithCode(2),
              "unknown flag '--tiering-policy'");
  Argv faults({"bench", "--fault-seed", "7"});
  EXPECT_EXIT(parse(faults, {.tiering = true}), ::testing::ExitedWithCode(2),
              "unknown flag '--fault-seed'");
  EXPECT_EXIT(parse(faults, {.faults = true}), ::testing::ExitedWithCode(2),
              "unknown flag '--fault-seed'");
  // A binary that seeds and tunes injectors of its own plans rejects a plan
  // it would drop.
  Argv plan({"bench", "--faults", "storm"});
  EXPECT_EXIT(parse(plan, {.fault_tuning = true}), ::testing::ExitedWithCode(2),
              "unknown flag '--faults'");
  Argv both({"bench", "--fault-seed", "7", "--tiering-policy", "tpp-like"});
  const Context ctx = parse(both, {.fault_tuning = true, .tiering = true});
  EXPECT_EQ(ctx.fault_seed(), 7u);
  EXPECT_EQ(ctx.tiering_policy(), "tpp-like");
}

TEST(ContextDeathTest, BadFaultSpecExits) {
  Argv a({"bench", "--faults", "meltdown@1"});
  EXPECT_EXIT(Parse(a), ::testing::ExitedWithCode(2), "bad value 'meltdown@1' for '--faults'");
}

TEST(ContextDeathTest, BadFaultSeedExits) {
  Argv a({"bench", "--fault-seed=7x"});
  EXPECT_EXIT(Parse(a), ::testing::ExitedWithCode(2), "bad value '7x' for '--fault-seed'");
}

TEST(ContextDeathTest, UnknownFaultKnobExits) {
  Argv unknown({"bench", "--fault-knob", "fault.bogus=1"});
  EXPECT_EXIT(Parse(unknown), ::testing::ExitedWithCode(2), "unknown fault knob \"fault.bogus\"");
  Argv malformed({"bench", "--fault-knob", "fault.shed_fraction"});
  EXPECT_EXIT(Parse(malformed), ::testing::ExitedWithCode(2), "want KEY=NUMBER");
}

TEST(ContextDeathTest, UnknownTieringPolicyExits) {
  Argv a({"bench", "--tiering-policy", "lru"});
  EXPECT_EXIT(Parse(a), ::testing::ExitedWithCode(2),
              "bad value 'lru' for '--tiering-policy': want one of .*tpp-like");
}

}  // namespace
}  // namespace cxl::bench
