#include "src/bench/context.h"

#include <iostream>
#include <memory>

#include "src/os/policy_registry.h"

namespace cxl::bench {

namespace {

Status Want(const std::string& what) { return Status::InvalidArgument("want " + what); }

}  // namespace

Context Context::FromArgs(int* argc, char** argv, FlagGroups groups,
                          std::vector<Flag> own_flags, std::string positionals) {
  Context ctx;
  fault::DeclareFaultKnobs(ctx.knobs_);
  telemetry::BenchTelemetry::Outputs outputs;

  std::vector<Flag> table;
  if (groups.jobs) {
    table.push_back({"--jobs", "N",
                     [&ctx](const std::string& value) {
                       ctx.jobs_ = runner::ParsePositiveInt(value.c_str());
                       return ctx.jobs_ > 0 ? Status::Ok() : Want("a positive integer");
                     },
                     "worker threads for sweeps (default: CXL_JOBS, then all cores)", "-j"});
  }
  table.insert(table.end(), {
      {"--metrics-out", "FILE", Store(&outputs.metrics_path),
       "metrics JSON, or CSV when FILE ends in .csv"},
      {"--trace-out", "FILE", Store(&outputs.trace_path), "Chrome trace-event JSON"},
      {"--bench-json", "FILE", Store(&outputs.bench_json_path),
       "one-line machine-readable bench summary"},
      {"--events-out", "FILE", Store(&outputs.events_path),
       "structured event log, JSONL (cxl-events-v1)"},
      {"--events-ring", "N", Store(&outputs.events_ring),
       "keep only the latest N events per cell (0: full log)"},
      {"--profile-epochs", "",
       [&ctx](const std::string&) {
         if (ctx.profiler_ == nullptr) {
           ctx.profiler_ = std::make_unique<telemetry::EpochProfiler>();
         }
         return Status::Ok();
       },
       "per-phase wall-clock breakdown of the epoch hot path, on stderr"},
  });
  if (groups.faults) {
    table.push_back({"--faults", "SPEC",
                     [&ctx](const std::string& value) {
                       auto plan = fault::FaultPlan::Parse(value);
                       if (!plan.ok()) {
                         return plan.status();
                       }
                       ctx.faults_ = std::move(plan).value();
                       return Status::Ok();
                     },
                     "fault plan: \"storm\" or an event list (docs/faults.md)"});
  }
  if (groups.fault_tuning) {
    table.insert(
        table.end(),
        {{"--fault-seed", "N", Store(&ctx.fault_seed_), "fault injector seed (default 1)"},
         {"--fault-knob", "K=V",
          [&ctx](const std::string& value) {
            const size_t eq = value.find('=');
            double knob = 0.0;
            if (eq == std::string::npos || eq == 0 ||
                !ParseNumber(std::string_view(value).substr(eq + 1), &knob)) {
              return Want("KEY=NUMBER");
            }
            const std::string key = value.substr(0, eq);
            if (!ctx.knobs_.Set(key, knob).ok()) {
              return Status::InvalidArgument("unknown fault knob \"" + key +
                                             "\" (see fault::DeclareFaultKnobs)");
            }
            return Status::Ok();
          },
          "override a fault.* tunable (repeatable)"}});
  }
  if (groups.tiering) {
    std::vector<std::pair<std::string, std::string>> policies;
    for (const std::string& name : os::PolicyRegistry::BuiltIns().Names()) {
      policies.emplace_back(name, name);
    }
    table.push_back({"--tiering-policy", "NAME", OneOf(&ctx.tiering_policy_, std::move(policies)),
                     "promotion policy for the tiering daemon"});
  }
  for (Flag& flag : own_flags) {
    table.push_back(std::move(flag));
  }
  ctx.usage_ = ParseFlags(argc, argv, std::move(table), positionals);
  ctx.fault_tunables_ = fault::FaultTunablesFromKnobs(ctx.knobs_);
  ctx.telemetry_ = telemetry::BenchTelemetry(std::move(outputs));
  return ctx;
}

core::ExperimentEnv Context::Env(uint64_t seed) {
  core::ExperimentEnv env;
  env.seed = seed;
  env.jobs = jobs_;
  env.telemetry = sink();
  env.profiler = profiler_.get();
  env.faults = faults_;
  env.fault_seed = fault_seed_;
  env.fault_tunables = fault_tunables_;
  env.tiering_policy = tiering_policy_;
  return env;
}

bool Context::Write(const std::string& bench_name) {
  if (profiler_ != nullptr) {
    // Stderr so table output on stdout stays byte-identical with and
    // without the flag (same contract as SweepStats::Summary).
    std::cerr << bench_name << " " << profiler_->Report(profiler_->WallMsSinceBirth()) << "\n";
  }
  return telemetry_.Write(bench_name);
}

runner::SweepOptions Context::Sweep(uint64_t base_seed) const {
  runner::SweepOptions options;
  options.jobs = jobs_;
  options.base_seed = base_seed;
  return options;
}

}  // namespace cxl::bench
