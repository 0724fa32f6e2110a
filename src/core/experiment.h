// End-to-end experiment runners. Every KeyDB number (Fig. 5, Fig. 8, the
// §2.3/§4.1.2 promotion-policy comparisons) comes from one cell shape:
// platform, 16 KiB page allocator, optional promotion daemon, KvStore, op
// source, optional fault injector and KvServerSim. KvCell holds that cell as
// data and RunKvCell is the one place that composes it. RunKeyDbExperiment
// is the Table 1 mapping on top (MakeKvCell, then one RunKvCell). Every
// env-wired Spark number (Fig. 7, the §4.2.2 thrash, the Spark fault and
// policy rows) comes from SparkCell, composed by RunSparkCell: one query
// on one SparkCluster with the env's telemetry sink and fault injector. The
// LLM runner wires the same environment through its app.
#ifndef CXL_EXPLORER_SRC_CORE_EXPERIMENT_H_
#define CXL_EXPLORER_SRC_CORE_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/kv/server.h"
#include "src/apps/llm/serving.h"
#include "src/apps/spark/cluster.h"
#include "src/apps/spark/query.h"
#include "src/core/configs.h"
#include "src/fault/fault.h"
#include "src/os/numa_policy.h"
#include "src/os/page.h"
#include "src/os/tiering.h"
#include "src/telemetry/epoch_profiler.h"
#include "src/telemetry/metrics.h"
#include "src/topology/platform.h"
#include "src/util/histogram.h"
#include "src/util/status.h"
#include "src/util/units.h"
#include "src/workload/ycsb.h"

namespace cxl::core {

// Cross-cutting execution environment shared by every Run*Experiment and
// Run*Cell entry point: where randomness comes from, how wide multi-cell
// experiments fan out, where observability lands, and which faults (if any)
// are injected. Embedded by value in each experiment's options struct so
// these concerns are plumbed once instead of re-declared per experiment.
struct ExperimentEnv {
  // Base seed for workload generation and service-time jitter. Multi-cell
  // experiments derive per-cell seeds with runner::CellSeed.
  uint64_t seed = 1;
  // Worker threads for multi-cell experiments (Fig. 8 runs its two
  // placements concurrently). 0 = auto (CXL_JOBS env, then hardware).
  int jobs = 0;
  // Optional telemetry sink. When set, the run emits per-epoch PCM/vmstat/
  // tiering time series, trace spans, end-state gauges and latency
  // histograms into it. Purely additive: results and stdout are unchanged.
  // Single-writer — for sweeps, give every cell its own registry and merge
  // by cell index afterwards. (RunVmCxlOnlyExperiment does this internally:
  // its two placements land under "mmem." / "cxl." prefixes.)
  telemetry::MetricRegistry* telemetry = nullptr;
  // Optional per-phase wall-clock profiler (--profile-epochs). Shared across
  // cells — its accumulators are atomic. Observational only: results and
  // stdout are unchanged; the breakdown prints to stderr.
  telemetry::EpochProfiler* profiler = nullptr;
  // Fault plan injected into the run (empty = healthy; the default). The
  // experiment constructs one fault::FaultInjector per simulation, seeded
  // from `fault_seed` (per-cell via runner::CellSeed in sweeps) — never from
  // `seed`, so toggling faults cannot perturb the healthy RNG streams.
  fault::FaultPlan faults;
  uint64_t fault_seed = 1;
  fault::FaultTunables fault_tunables;
  // PolicyRegistry name of the tiering policy MakeKvCell gives a Hot-Promote
  // cell's daemon. Empty = the config default (hot page selection). KvCell
  // and SparkCell carry their own policy, so the cell runners do not read it.
  std::string tiering_policy;

  bool faults_enabled() const { return !faults.empty(); }
};

struct KeyDbExperimentOptions {
  // The paper's capacity experiments use a 512 GB working set of 1 KiB
  // records (§4.1.1); the default here is the same *shape* at 1/8 scale so a
  // full Fig. 5 sweep runs in seconds. Scale effects (fractions, ratios,
  // contention) are size-invariant in the model; pass 512 GiB to reproduce
  // at full scale.
  uint64_t dataset_bytes = 64 * kGiB;
  uint64_t value_bytes = 1024;
  uint64_t total_ops = 250'000;
  uint64_t warmup_ops = 50'000;
  int server_threads = 7;
  int client_connections = 64;
  // Shared execution environment (seed, jobs, telemetry, fault plan).
  ExperimentEnv env;
  // Override the KvStore cost preset (nullopt = Fig. 5 defaults). Held by
  // value: the options struct owns its preset, so there is no dangling-
  // pointer hazard when options outlive the scope that configured them.
  std::optional<apps::kv::KvStoreConfig> store_preset;
};

struct KeyDbExperimentResult {
  std::string config_label;
  std::string workload_name;
  apps::kv::KvServerSim::Result server;
  // Relative throughput vs a caller-supplied baseline (filled by helpers).
  double slowdown_vs_baseline = 0.0;
};

// One KeyDB server cell as data. Benches that vary one knob take a
// MakeKvCell cell and override that field (say tiering->policy or
// tiering->promote_rate_limit_mbps).
struct KvCell {
  topology::Platform platform;
  // Where the store's pages go.
  os::NumaPolicy placement;
  // Promotion daemon knobs; nullopt runs without a daemon.
  std::optional<os::TieringConfig> tiering;
  apps::kv::KvStoreConfig store;
  // The server's own profiler field is ignored: RunKvCell takes the
  // profiler from its ExperimentEnv.
  apps::kv::KvServerConfig server;
};

struct KvCellResult {
  apps::kv::KvServerSim::Result server;
  // The allocator's end-of-run /proc/vmstat totals (promotions, demotions,
  // hint faults, rate-limited promotions).
  os::VmCounters counters;
};

// Runs `cell` with the op stream `source`. `env` supplies the fault plan
// (one injector seeded from env.fault_seed), the fault tunables, the
// telemetry sink and the profiler. The cell carries its own service-time
// seed and daemon policy, so env.seed and env.tiering_policy are not read.
// Fails without running when the store does not fit its placement.
StatusOr<KvCellResult> RunKvCell(const KvCell& cell, workload::OpSource& source,
                                 const ExperimentEnv& env);
// The same with a YCSB generator over the store's records, seeded from
// env.seed and built only once the store fits.
StatusOr<KvCellResult> RunKvCell(const KvCell& cell, workload::YcsbWorkload workload,
                                 const ExperimentEnv& env);

// The cell of one Table 1 configuration: the CXL server with SNC disabled
// (Hot-Promote caps DRAM at half the dataset), the configuration's
// placement, flash mode and daemon (policy env.tiering_policy), and the
// options' dataset, store preset and server shape (seed env.seed).
KvCell MakeKvCell(CapacityConfig config, const KeyDbExperimentOptions& options);

// Runs one (configuration, workload) cell of Fig. 5: MakeKvCell, then
// RunKvCell.
StatusOr<KeyDbExperimentResult> RunKeyDbExperiment(CapacityConfig config,
                                                   workload::YcsbWorkload workload,
                                                   const KeyDbExperimentOptions& options = {});

// Fig. 8 / §4.3: KeyDB bound entirely to MMEM or entirely to CXL via
// numactl-style bind (100 GB YCSB-C by default, at 1/8 scale).
struct VmExperimentResult {
  KeyDbExperimentResult mmem;
  KeyDbExperimentResult cxl;
  double throughput_penalty = 0.0;  // 1 - cxl/mmem.
};
StatusOr<VmExperimentResult> RunVmCxlOnlyExperiment(KeyDbExperimentOptions options = {});

// §4.2: one Spark TPC-H query on one cluster configuration, as data.
// Benches that vary one knob override that field of `cluster` (say
// tiering_policy or promote_rate_limit_mbps).
struct SparkCell {
  apps::spark::SparkConfig cluster;
  apps::spark::QueryProfile query;
};

// Runs `cell` on a SparkCluster observed by env.telemetry and by one fault
// injector seeded from env.fault_seed (built only when env has a fault
// plan, with env.fault_tunables). The cell carries its own daemon policy,
// so env.seed and env.tiering_policy are not read.
apps::spark::QueryResult RunSparkCell(const SparkCell& cell, const ExperimentEnv& env);

// §5: LLM serving pipeline driven with back-to-back requests.
struct LlmExperimentOptions {
  apps::llm::ServingStackConfig stack;
  apps::llm::ServingRequest request;
  int requests = 64;
  ExperimentEnv env;
};

struct LlmExperimentResult {
  apps::llm::ServingStack::Stats stats;
  Histogram latency_s{1e-4, 1e5, 96};  // Per-request latency (seconds).
};

StatusOr<LlmExperimentResult> RunLlmExperiment(const LlmExperimentOptions& options = {});

}  // namespace cxl::core

#endif  // CXL_EXPLORER_SRC_CORE_EXPERIMENT_H_
