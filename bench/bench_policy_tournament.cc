// Policy tournament: every policy in os::PolicyRegistry head to head across
// the paper's application shapes, healthy and under fault storms:
//
//   (a) KeyDB YCSB-B — the stable Zipfian hot set every policy should handle
//       (§4.2.3's happy path). The adaptive policy must stay within 2% of
//       hot-page-selection here: on a healthy link with strong re-access it
//       keeps full aggressiveness and makes the same decisions.
//   (b) Streaming scan — the bandwidth-intensive pattern that degraded TPP
//       (§2.3). Promoted pages are never re-accessed, so the adaptive
//       feedback loop should cut its promotion budget and migrate far less.
//   (c) LLM-serving-shaped KV-cache traffic — a hot shared prefix (prompt KV
//       blocks re-read every decode step) plus a streaming tail of freshly
//       appended blocks; a mixed shape between (a) and (b).
//   (d) Spark TPC-H Q9 on the Hot-Promote cluster — shuffle-heavy scans that
//       thrash the promotion daemon; the adaptive policy should beat
//       hot-page-selection by not paying for doomed migrations.
//
// Fault axis: each workload runs healthy and under a lane down-train storm
// (the §4.2 degraded-link window); the adaptive policy backs off promotion
// exponentially while the window is open instead of migrating over the
// degraded link.
//
// All cells run through the deterministic sweep runner with per-cell fault
// seeds derived via runner::CellSeed, so stdout is byte-identical at any
// --jobs (CI diffs --jobs 1 against --jobs 8 and against the checked-in
// golden). The final verdict section prints explicit CHECK lines for the
// tournament's acceptance criteria and the binary exits non-zero if any
// fail.
#include <iostream>
#include <memory>
#include <vector>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/os/policy_registry.h"
#include "src/util/units.h"

namespace {

using namespace cxl;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kDataset = 8ull << 30;

// Tournament bracket: legacy policies first, the adaptive challenger last.
const std::vector<std::string> kPolicies = {
    os::kHotPageSelectionPolicyName,
    os::kMruBalancingPolicyName,
    os::kTppLikePolicyName,
    os::kAdaptiveFeedbackPolicyName,
};

struct FaultState {
  std::string label;
  fault::FaultPlan plan;
};

// Sub-second scaled runs: the storm opens early and persists to the end,
// like the bench_fault_storms scenarios.
std::vector<FaultState> FaultStates() {
  return {{"healthy", {}},
          {"downtrain", fault::FaultPlan().Downtrain(0.05, kInf, 8)}};
}

// Streaming scan source: sequential sweeps over the whole keyspace — the
// bandwidth-intensive pattern that broke TPP for the paper (§2.3).
class ScanSource final : public workload::OpSource {
 public:
  explicit ScanSource(uint64_t keys) : keys_(keys) {}
  workload::YcsbOp Next() override {
    cursor_ += 524'287;  // Large prime: touches fresh pages fast.
    return workload::YcsbOp{workload::YcsbOp::Type::kRead, cursor_ % keys_};
  }
  double WriteFraction() const override { return 0.0; }

 private:
  uint64_t keys_;
  uint64_t cursor_ = 0;
};

// LLM-serving-shaped KV-cache traffic: decode steps re-read the shared
// prompt prefix (a small hot set, 1/64 of the keyspace) between streaming
// reads of freshly appended KV blocks. The prefix rewards promotion; the
// tail punishes it — the mix a serving stack actually presents.
class LlmServingSource final : public workload::OpSource {
 public:
  explicit LlmServingSource(uint64_t keys)
      : keys_(keys), prefix_keys_(keys / 64) {}
  workload::YcsbOp Next() override {
    ++step_;
    if (step_ % 4 != 0) {  // 3 of 4 reads hit the prompt-prefix KV blocks.
      prefix_cursor_ = (prefix_cursor_ + 97) % prefix_keys_;
      return workload::YcsbOp{workload::YcsbOp::Type::kRead, prefix_cursor_};
    }
    tail_cursor_ += 524'287;
    return workload::YcsbOp{workload::YcsbOp::Type::kRead,
                            prefix_keys_ + tail_cursor_ % (keys_ - prefix_keys_)};
  }
  double WriteFraction() const override { return 0.0; }

 private:
  uint64_t keys_;
  uint64_t prefix_keys_;
  uint64_t step_ = 0;
  uint64_t prefix_cursor_ = 0;
  uint64_t tail_cursor_ = 0;
};

std::unique_ptr<workload::OpSource> MakeKvSource(const std::string& workload,
                                                 uint64_t keys) {
  if (workload == "kv-scan") {
    return std::make_unique<ScanSource>(keys);
  }
  if (workload == "kv-llm") {
    return std::make_unique<LlmServingSource>(keys);
  }
  // Every cell replays the same workload seed: rows differ only by policy
  // and fault plan.
  return std::make_unique<workload::YcsbGenerator>(workload::YcsbWorkload::kB,
                                                   keys, 1);
}

struct KvEntry {
  std::string workload;  // kv-zipf | kv-scan | kv-llm
  std::string faults;    // FaultState label
  std::string policy;    // PolicyRegistry name
  fault::FaultPlan plan;
};

// The Hot-Promote KeyDB cell every KV row runs, under `policy`.
core::KvCell HotPromoteCell(const std::string& policy) {
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = kDataset;
  opt.total_ops = 150'000;
  opt.warmup_ops = 40'000;
  core::KvCell cell = core::MakeKvCell(core::CapacityConfig::kHotPromote, opt);
  cell.tiering->policy = policy;
  cell.tiering->promote_rate_limit_mbps = 256.0;  // Production cap; TPP ignores it.
  return cell;
}

struct SparkEntry {
  std::string faults;
  std::string policy;
  fault::FaultPlan plan;
};

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::Context::FromArgs(&argc, argv, {.fault_tuning = true});
  auto& bench_telemetry = ctx.telemetry();
  const auto storms = FaultStates();

  // ---- KV bracket: 3 workloads x 2 fault states x 4 policies. ----
  const std::vector<std::string> kv_workloads = {"kv-zipf", "kv-scan", "kv-llm"};
  std::vector<KvEntry> kv_cells;
  for (const auto& w : kv_workloads) {
    for (const auto& s : storms) {
      for (const auto& p : kPolicies) {
        kv_cells.push_back({w, s.label, p, s.plan});
      }
    }
  }
  std::vector<std::string> kv_labels;
  for (const auto& c : kv_cells) {
    kv_labels.push_back(c.workload + "/" + c.faults + "/" + c.policy);
  }
  runner::SweepOptions sweep_options = ctx.Sweep();
  sweep_options.cell_labels = kv_labels;
  runner::SweepStats stats;
  // Per-cell registries (single-writer under the sweep), merged in index
  // order after the sweep so output is --jobs-independent.
  std::vector<telemetry::MetricRegistry> kv_sinks(
      bench_telemetry.enabled() ? kv_cells.size() : 0);
  for (auto& sink : kv_sinks) {
    bench_telemetry.ConfigureSink(&sink);
  }
  const core::ExperimentEnv base_env = ctx.Env();
  const auto kv_grid = runner::RunSweep(
      kv_cells,
      [&kv_cells, &kv_sinks, &base_env](const KvEntry& cell, uint64_t /*seed*/) {
        const size_t index = static_cast<size_t>(&cell - kv_cells.data());
        auto source = MakeKvSource(cell.workload, kDataset / 1024);
        core::ExperimentEnv env = base_env;
        env.faults = cell.plan;
        env.fault_seed = runner::CellSeed(base_env.fault_seed, index);
        env.telemetry = kv_sinks.empty() ? nullptr : &kv_sinks[index];
        return core::RunKvCell(HotPromoteCell(cell.policy), *source, env);
      },
      sweep_options, &stats);
  if (!kv_grid.ok()) {
    std::cerr << "FAILED: " << kv_grid.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "[sweep] " << stats.Summary() << "\n";
  bench_telemetry.RecordSweep("kv", stats);
  for (size_t i = 0; i < kv_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(kv_sinks[i], kv_labels[i] + "/");
  }

  // Index into the flat KV grid.
  const auto kv_at = [&](const std::string& w, const std::string& f,
                         const std::string& p) -> const core::KvCellResult& {
    for (size_t i = 0; i < kv_cells.size(); ++i) {
      if (kv_cells[i].workload == w && kv_cells[i].faults == f &&
          kv_cells[i].policy == p) {
        return (*kv_grid)[i];
      }
    }
    std::abort();  // Unreachable: the bracket enumerates every combination.
  };
  const auto kv_winner = [&](const std::string& w, const std::string& f) {
    std::string best = kPolicies.front();
    for (const auto& p : kPolicies) {
      if (kv_at(w, f, p).server.throughput_kops >
          kv_at(w, f, best).server.throughput_kops) {
        best = p;
      }
    }
    return best;
  };

  const auto print_kv = [&](const std::string& w, const char* title) {
    PrintSection(std::cout, title);
    Table t({"faults", "policy", "kops/s", "p99 us", "promoted", "demoted",
             "migrated GB", "win"});
    for (const auto& s : storms) {
      const std::string best = kv_winner(w, s.label);
      for (const auto& p : kPolicies) {
        const core::KvCellResult& run = kv_at(w, s.label, p);
        t.Row()
            .Cell(s.label)
            .Cell(p)
            .Cell(run.server.throughput_kops, 1)
            .Cell(run.server.all_latency_us.p99(), 0)
            .Cell(run.counters.pgpromote_success)
            .Cell(run.counters.pgdemote)
            .Cell(BytesToGBd(run.server.migrated_bytes), 2)
            .Cell(p == best ? "*" : "");
      }
    }
    t.Print(std::cout);
  };
  print_kv("kv-zipf",
           "Policy tournament (a): KeyDB YCSB-B — stable Zipfian hot set");
  print_kv("kv-scan",
           "Policy tournament (b): streaming scan — the pattern that degraded TPP (§2.3)");
  print_kv("kv-llm",
           "Policy tournament (c): LLM-serving KV-cache shape — hot prefix + decode tail");
  std::cout << "Reading: on the Zipf hot set the adaptive policy sees strong promoted-page\n"
               "re-access and keeps hot-page-selection's exact behaviour; on the scan the\n"
               "re-access ratio collapses and it cuts the promotion budget instead of\n"
               "migrating pages that will never be touched again; under the down-train\n"
               "storm it backs off exponentially rather than migrate over a degraded link.\n";

  // ---- Spark bracket: TPC-H Q9 on the Hot-Promote cluster. ----
  std::vector<SparkEntry> spark_cells;
  for (const auto& s : storms) {
    for (const auto& p : kPolicies) {
      // Spark's storm uses the bench_fault_storms (b) shape: degraded from t=0.
      spark_cells.push_back(
          {s.label, p,
           s.plan.empty() ? fault::FaultPlan()
                          : fault::FaultPlan().Downtrain(0.0, kInf, 4)});
    }
  }
  std::vector<std::string> spark_labels;
  for (const auto& c : spark_cells) {
    spark_labels.push_back("spark-q9/" + c.faults + "/" + c.policy);
  }
  runner::SweepOptions spark_options = ctx.Sweep();
  spark_options.cell_labels = spark_labels;
  std::vector<telemetry::MetricRegistry> spark_sinks(
      bench_telemetry.enabled() ? spark_cells.size() : 0);
  for (auto& sink : spark_sinks) {
    bench_telemetry.ConfigureSink(&sink);
  }
  const auto spark_grid = runner::RunSweep(
      spark_cells,
      [&spark_cells, &spark_sinks, &kv_cells, &ctx](
          const SparkEntry& cell, uint64_t /*seed*/) -> StatusOr<apps::spark::QueryResult> {
        const size_t index = static_cast<size_t>(&cell - spark_cells.data());
        core::SparkCell spark{apps::spark::SparkConfig::HotPromote(),
                              *apps::spark::FindQuery("Q9")};
        spark.cluster.tiering_policy = cell.policy;
        // Half the Hot-Promote default: the §4.2.2 thrash regime, where the
        // rate-limited daemon cannot keep up with the advancing window and
        // promotions land after the pages went cold — pure stall cost. (At
        // the default 3000 MB/s enough of the window lands hot for the
        // placement gain to cover the stalls.)
        spark.cluster.promote_rate_limit_mbps = 1500.0;
        core::ExperimentEnv env = ctx.Env();
        env.faults = cell.plan;
        // Continue the CellSeed sequence after the KV bracket so no two
        // cells share a fault stream.
        env.fault_seed = runner::CellSeed(ctx.fault_seed(), kv_cells.size() + index);
        env.telemetry = spark_sinks.empty() ? nullptr : &spark_sinks[index];
        return core::RunSparkCell(spark, env);
      },
      spark_options, &stats);
  if (!spark_grid.ok()) {
    std::cerr << "FAILED: " << spark_grid.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "[sweep] " << stats.Summary() << "\n";
  bench_telemetry.RecordSweep("spark", stats);
  for (size_t i = 0; i < spark_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(spark_sinks[i], spark_labels[i] + "/");
  }

  const auto spark_at = [&](const std::string& f,
                            const std::string& p) -> const apps::spark::QueryResult& {
    for (size_t i = 0; i < spark_cells.size(); ++i) {
      if (spark_cells[i].faults == f && spark_cells[i].policy == p) {
        return (*spark_grid)[i];
      }
    }
    std::abort();  // Unreachable: the bracket enumerates every combination.
  };
  PrintSection(std::cout,
               "Policy tournament (d): Spark TPC-H Q9 — shuffle scans thrash the promoter");
  Table sp({"faults", "policy", "total s", "shuffle s", "retry s", "win"});
  for (const auto& s : storms) {
    std::string best = kPolicies.front();
    for (const auto& p : kPolicies) {
      if (spark_at(s.label, p).total_seconds <
          spark_at(s.label, best).total_seconds) {
        best = p;
      }
    }
    for (const auto& p : kPolicies) {
      const auto& res = spark_at(s.label, p);
      sp.Row()
          .Cell(s.label)
          .Cell(p)
          .Cell(res.total_seconds, 2)
          .Cell(res.ShuffleSeconds(), 2)
          .Cell(res.retry_seconds, 2)
          .Cell(p == best ? "*" : "");
    }
  }
  sp.Print(std::cout);
  std::cout << "Reading: hot-page-selection keeps promoting the advancing window and the\n"
               "migrations land cold — the §4.2.2 mis-adaptation; the adaptive policy's\n"
               "ping-pong/re-access feedback cuts the budget instead. TPP's unbounded\n"
               "promotion happens to win this bracket, but it is the same aggression that\n"
               "collapses on the KV scan in (b): no static policy wins every bracket,\n"
               "which is the tournament's point.\n";

  // ---- Verdict: the acceptance criteria as explicit CHECK lines. ----
  PrintSection(std::cout, "Tournament verdict");
  bool ok = true;
  const auto check = [&ok](const std::string& label, bool pass) {
    std::cout << "CHECK " << label << ": " << (pass ? "PASS" : "FAIL") << "\n";
    ok = ok && pass;
  };
  const auto kops = [&](const std::string& w, const std::string& f,
                        const std::string& p) {
    return kv_at(w, f, p).server.throughput_kops;
  };
  const std::string hps = os::kHotPageSelectionPolicyName;
  const std::string adp = os::kAdaptiveFeedbackPolicyName;
  for (const auto& s : storms) {
    check("kv-zipf/" + s.label + ": adaptive-feedback within 2% of hot-page-selection",
          kops("kv-zipf", s.label, adp) >= 0.98 * kops("kv-zipf", s.label, hps));
  }
  check("kv-scan/healthy: adaptive-feedback migrates less than half of hot-page-selection",
        kv_at("kv-scan", "healthy", adp).server.migrated_bytes <
            0.5 * kv_at("kv-scan", "healthy", hps).server.migrated_bytes);
  for (const auto& s : storms) {
    check("spark-q9/" + s.label + ": adaptive-feedback beats hot-page-selection",
          spark_at(s.label, adp).total_seconds <
              spark_at(s.label, hps).total_seconds);
  }

  if (!ctx.Write("bench_policy_tournament")) {
    return 1;
  }
  return ok ? 0 : 1;
}
