// Unified bench context: the flag surface every bench_* binary shares.
//
// FromArgs parses argv against one flag table: the shared flags (jobs,
// telemetry outputs, --profile-epochs; listed with their help in
// context.cc), the flag groups the caller declares (fault injection,
// --tiering-policy) and the caller's own entries. A binary declares only
// the groups it honours, so it rejects the others' flags as unknown. Each
// value flag takes `--flag V` or `--flag=V`; `--jobs` also takes `-j N` and
// `-jN`. An unknown flag, a stray positional, a missing value or a malformed
// one prints one stderr line naming the argument, then the usage generated
// from the table, and exits 2 with nothing on stdout.
//
// With no flags given the context is inert: no telemetry sink, empty fault
// plan, stdout byte-identical to a bench that never parsed these flags.
//
// Usage in a bench main:
//
//   auto ctx = bench::Context::FromArgs(&argc, argv,
//                                       {.faults = true, .fault_tuning = true, .tiering = true});
//   auto& bench_telemetry = ctx.telemetry();
//   ...
//   auto grid = runner::RunSweep(cells, fn, ctx.Sweep(seed), &stats);
//   ...
//   if (!ctx.Write("bench_fig5_keydb_ycsb")) return 1;
#ifndef CXL_EXPLORER_SRC_BENCH_CONTEXT_H_
#define CXL_EXPLORER_SRC_BENCH_CONTEXT_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/experiment.h"
#include "src/fault/fault.h"
#include "src/runner/sweep.h"
#include "src/telemetry/bench_io.h"
#include "src/telemetry/epoch_profiler.h"
#include "src/util/knobs.h"
#include "src/util/status.h"

namespace cxl::bench {

// Parses all of `text` as a T (an integer or a double). False, leaving *out
// untouched, on an empty, partly numeric or out-of-range string.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// One row of the flag table.
struct Flag {
  std::string name;        // "--jobs"
  std::string value_name;  // "N", "FILE", ...; empty for a switch
  // Applies the flag (value empty for a switch). A non-ok Status rejects the
  // value; its message says what the flag wants.
  std::function<Status(const std::string& value)> set;
  std::string help;
};

// The optional flag groups of the table. A binary declares a group only
// when its runs read what the group sets.
struct FlagGroups {
  bool faults = false;        // --faults: the runs inject the parsed plan.
  bool fault_tuning = false;  // --fault-seed, --fault-knob.
  bool tiering = false;       // --tiering-policy.
};

class Context {
 public:
  // Parses argv against the shared flags, the declared `groups` and
  // `own_flags`. Positionals are rejected unless `positionals` names them
  // for the usage line (e.g. "[Rd Rc C Rt]"); then they are left in argv,
  // compacted into *argc.
  static Context FromArgs(int* argc, char** argv, FlagGroups groups = {},
                          std::vector<Flag> own_flags = {}, std::string positionals = "");

  // Prints "<program>: <message>" and the usage to stderr, then exits 2.
  [[noreturn]] void Fail(const std::string& message) const;

  // Worker threads requested via --jobs/-j (0 = auto).
  int jobs() const { return jobs_; }

  // Telemetry outputs (--metrics-out/--trace-out/--bench-json). Write() also
  // prints the --profile-epochs breakdown to stderr when enabled.
  telemetry::BenchTelemetry& telemetry() { return telemetry_; }
  telemetry::MetricRegistry* sink() { return telemetry_.sink(); }
  bool Write(const std::string& bench_name);

  // Epoch profiler (--profile-epochs), or nullptr when not requested.
  telemetry::EpochProfiler* profiler() { return profiler_.get(); }
  bool profile_epochs() const { return profiler_ != nullptr; }

  // Fault-injection surface (--faults, and --fault-seed/--fault-knob; the
  // defaults unless the faults and fault_tuning groups are declared).
  const fault::FaultPlan& faults() const { return faults_; }
  uint64_t fault_seed() const { return fault_seed_; }
  const fault::FaultTunables& fault_tunables() const { return fault_tunables_; }
  bool faults_enabled() const { return !faults_.empty(); }
  // The declared fault.* knobs after --fault-knob overrides (for listings).
  const KnobSet& knobs() const { return knobs_; }

  // --tiering-policy (validated against PolicyRegistry::BuiltIns(); empty
  // when the flag was not given or the tiering group is not declared).
  const std::string& tiering_policy() const { return tiering_policy_; }

  // Shared experiment environment carrying this context's jobs, sink and
  // fault plan (plus the caller's base seed) into a Run*Experiment call.
  core::ExperimentEnv Env(uint64_t seed = 1);

  // Sweep options pre-filled with the parsed --jobs value.
  runner::SweepOptions Sweep(uint64_t base_seed = 1) const;

 private:
  std::string program_;
  std::string usage_;
  int jobs_ = 0;
  // Allocated when --profile-epochs is given (EpochProfiler holds atomics,
  // so it lives behind a pointer to keep Context movable).
  std::unique_ptr<telemetry::EpochProfiler> profiler_;
  telemetry::BenchTelemetry telemetry_;
  fault::FaultPlan faults_;
  uint64_t fault_seed_ = 1;
  fault::FaultTunables fault_tunables_;
  KnobSet knobs_;
  std::string tiering_policy_;
};

}  // namespace cxl::bench

#endif  // CXL_EXPLORER_SRC_BENCH_CONTEXT_H_
