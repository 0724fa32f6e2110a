#include "src/bench/context.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "src/os/policy_registry.h"

namespace cxl::bench {

namespace {

Status Want(const std::string& what) { return Status::InvalidArgument("want " + what); }

std::string Usage(const std::string& program, const std::vector<Flag>& table,
                  const std::string& positionals) {
  std::string usage = "usage: " + program + " [flags]";
  if (!positionals.empty()) {
    usage += " " + positionals;
  }
  usage += "\n";
  for (const Flag& flag : table) {
    std::string left = "  " + flag.name;
    if (!flag.value_name.empty()) {
      left += " " + flag.value_name;
    }
    if (flag.name == "--jobs") {
      left += ", -j N";
    }
    left.resize(std::max<size_t>(left.size() + 1, 28), ' ');
    usage += left + flag.help + "\n";
  }
  return usage;
}

}  // namespace

Context Context::FromArgs(int* argc, char** argv, FlagGroups groups,
                          std::vector<Flag> own_flags, std::string positionals) {
  Context ctx;
  const std::string_view argv0 = argv[0];
  ctx.program_ = std::string(argv0.substr(argv0.find_last_of('/') + 1));
  fault::DeclareFaultKnobs(ctx.knobs_);
  telemetry::BenchTelemetry::Outputs outputs;

  auto set_string = [](std::string* out) {
    return [out](const std::string& value) {
      *out = value;
      return Status::Ok();
    };
  };
  std::vector<Flag> table = {
      {"--jobs", "N",
       [&ctx](const std::string& value) {
         ctx.jobs_ = runner::ParsePositiveInt(value.c_str());
         return ctx.jobs_ > 0 ? Status::Ok() : Want("a positive integer");
       },
       "worker threads for sweeps (default: CXL_JOBS, then all cores)"},
      {"--metrics-out", "FILE", set_string(&outputs.metrics_path),
       "metrics JSON, or CSV when FILE ends in .csv"},
      {"--trace-out", "FILE", set_string(&outputs.trace_path), "Chrome trace-event JSON"},
      {"--bench-json", "FILE", set_string(&outputs.bench_json_path),
       "one-line machine-readable bench summary"},
      {"--events-out", "FILE", set_string(&outputs.events_path),
       "structured event log, JSONL (cxl-events-v1)"},
      {"--events-ring", "N",
       [&outputs](const std::string& value) {
         return ParseNumber(value, &outputs.events_ring) ? Status::Ok()
                                                          : Want("a non-negative integer");
       },
       "keep only the latest N events per cell (0: full log)"},
      {"--profile-epochs", "",
       [&ctx](const std::string&) {
         if (ctx.profiler_ == nullptr) {
           ctx.profiler_ = std::make_unique<telemetry::EpochProfiler>();
         }
         return Status::Ok();
       },
       "per-phase wall-clock breakdown of the epoch hot path, on stderr"},
  };
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
        {{"--fault-seed", "N",
          [&ctx](const std::string& value) {
            return ParseNumber(value, &ctx.fault_seed_) ? Status::Ok()
                                                        : Want("a non-negative integer");
          },
          "fault injector seed (default 1)"},
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
    table.push_back({"--tiering-policy", "NAME",
                     [&ctx](const std::string& value) {
                       const os::PolicyRegistry& registry = os::PolicyRegistry::BuiltIns();
                       if (registry.Has(value)) {
                         ctx.tiering_policy_ = value;
                         return Status::Ok();
                       }
                       std::string known;
                       for (const auto& name : registry.Names()) {
                         known += known.empty() ? name : ", " + name;
                       }
                       return Want("one of " + known);
                     },
                     "promotion policy for the tiering daemon"});
  }
  for (Flag& flag : own_flags) {
    table.push_back(std::move(flag));
  }
  ctx.usage_ = Usage(ctx.program_, table, positionals);

  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (positionals.empty()) {
        ctx.Fail("unexpected argument '" + arg + "'");
      }
      argv[kept++] = argv[i];
      continue;
    }
    // `-j N` and `-jN` are `--jobs N`.
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (arg.compare(0, 2, "-j") == 0) {
      name = "-j";
      has_value = arg.size() > 2;
      value = arg.substr(2);
    } else if (const size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      has_value = true;
      value = arg.substr(eq + 1);
    }
    const std::string key = name == "-j" ? "--jobs" : name;
    const Flag* flag = nullptr;
    for (const Flag& candidate : table) {
      if (candidate.name == key) {
        flag = &candidate;
        break;
      }
    }
    if (flag == nullptr) {
      ctx.Fail("unknown flag '" + name + "'");
    }
    if (flag->value_name.empty() && has_value) {
      ctx.Fail("'" + name + "' takes no value");
    }
    if (!flag->value_name.empty() && !has_value) {
      if (i + 1 >= *argc) {
        ctx.Fail("'" + name + "' needs a value (" + flag->value_name + ")");
      }
      value = argv[++i];
    }
    if (const Status set = flag->set(value); !set.ok()) {
      ctx.Fail("bad value '" + value + "' for '" + name + "': " + set.message());
    }
  }
  *argc = kept;

  ctx.fault_tunables_ = fault::FaultTunablesFromKnobs(ctx.knobs_);
  ctx.telemetry_ = telemetry::BenchTelemetry(std::move(outputs));
  return ctx;
}

void Context::Fail(const std::string& message) const {
  std::cerr << program_ << ": " << message << "\n" << usage_;
  std::exit(2);
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
