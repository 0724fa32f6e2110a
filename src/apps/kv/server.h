// Event-driven KeyDB server simulation.
//
// Reproduces the paper's KeyDB methodology (§4.1.1): one store instance with
// seven server threads, driven closed-loop by YCSB clients. The discrete-
// event engine models request queueing at the event loops (tail latency!),
// while memory-stall and SSD costs come from the platform's contention
// model, refreshed every epoch from the traffic the simulation itself
// generated — a fluid feedback loop:
//
//   ops drive bytes/s per NUMA node -> BandwidthSolver -> loaded latency ->
//   per-op service time -> ops/s ...
//
// The optional tiering daemon runs on simulated time and its migration
// traffic is charged against memory bandwidth (Hot-Promote is not free).
#ifndef CXL_EXPLORER_SRC_APPS_KV_SERVER_H_
#define CXL_EXPLORER_SRC_APPS_KV_SERVER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/apps/kv/kvstore.h"
#include "src/fault/fault.h"
#include "src/os/tiering.h"
#include "src/sim/event_heap.h"
#include "src/telemetry/epoch_profiler.h"
#include "src/telemetry/metrics.h"
#include "src/topology/pcm.h"
#include "src/topology/platform.h"
#include "src/util/arena.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/workload/ycsb.h"

namespace cxl::apps::kv {

struct KvServerConfig {
  // KeyDB server threads (§4.1.1 deploys seven).
  int server_threads = 7;
  // Closed-loop client connections.
  int client_connections = 64;
  uint64_t total_ops = 300'000;
  // Ops ignored for statistics while the feedback loop settles.
  uint64_t warmup_ops = 50'000;
  // Contention model refresh cadence.
  uint64_t epoch_ops = 10'000;
  uint64_t seed = 1;
  // CPU socket the server threads are pinned to.
  int cpu_socket = 0;
  // Optional per-phase wall-clock profiler (nullable; see --profile-epochs).
  // Observational only: attaching it must not change simulation results.
  telemetry::EpochProfiler* profiler = nullptr;
};

class KvServerSim {
 public:
  // `tiering` may be null (no promotion daemon). The daemon, when present,
  // ticks once per epoch on simulated time. `telemetry` may be null too;
  // when set, every contention epoch appends PCM-style per-path bandwidth
  // series and throughput into it, plus one span per epoch on the
  // "kv-server" trace track. Observational only — attaching a sink must not
  // change the simulation.
  // `faults` (nullable) is the per-run fault injector. The server advances
  // its clock at every contention epoch and reacts to active faults:
  // degraded-link latency inflation on CXL-resident accesses, poisoned-read
  // retries (retried ops pay extra memory stalls; the touched page is
  // quarantined through `tiering`), flash IO-error timeouts + retries, and
  // load shedding after sustained degradation (a deterministic 1-in-k of
  // arrivals is rejected with a fast error reply). With a null or disabled
  // injector every run is byte-identical to a faultless build.
  KvServerSim(const topology::Platform& platform, KvStore& store, workload::OpSource& workload,
              KvServerConfig config, os::TieredMemory* tiering = nullptr,
              telemetry::MetricRegistry* telemetry = nullptr,
              fault::FaultInjector* faults = nullptr);

  // One row per contention epoch: the time series behind convergence plots
  // (Hot-Promote warm-up, SSD cache fill, ...).
  struct EpochSample {
    double end_ms = 0.0;        // Simulated time at the epoch boundary.
    double kops = 0.0;          // Throughput within the epoch.
    double migrated_mb = 0.0;   // Migration traffic the daemon generated.
    // Mean measured latency of the ops completed this epoch (0 while the
    // warm-up window is still discarding latencies). Feeds the SLO engine.
    double mean_latency_us = 0.0;
  };

  struct Result {
    double throughput_kops = 0.0;
    Histogram read_latency_us{0.1, 1e7, 96};
    Histogram update_latency_us{0.1, 1e7, 96};
    Histogram all_latency_us{0.1, 1e7, 96};
    // Telemetry at the end of the run.
    double dram_share = 0.0;          // Store pages on DRAM.
    double mem_traffic_gbps = 0.0;    // Aggregate memory traffic.
    double ssd_read_gbps = 0.0;
    double ssd_write_gbps = 0.0;
    double migrated_bytes = 0.0;      // Total promotion/demotion volume.
    double avg_service_us = 0.0;
    std::vector<EpochSample> timeline;
    // Fault accounting (all zero on healthy runs).
    uint64_t poisoned_reads = 0;      // Reads that hit a poisoned cacheline.
    uint64_t poison_retries = 0;      // Rereads issued for poisoned lines.
    uint64_t quarantined_pages = 0;   // Pages quarantined via the daemon.
    uint64_t flash_errors = 0;        // SSD reads that timed out and retried.
    uint64_t shed_ops = 0;            // Arrivals rejected while shedding.
    uint64_t shed_epochs = 0;         // Epochs spent in shedding mode.
  };

  Result Run();

 private:
  struct NodeState {
    double mean_latency_ns = 0.0;
    double idle_latency_ns = 0.0;
  };

  // Computes one op's service time (ns) and charges its traffic.
  double ServiceTimeNs(const workload::YcsbOp& op);
  // Loaded-latency inflation the active faults impose on `node` (1.0 when
  // faults are off — the healthy arithmetic is untouched).
  double FaultLatencyFactor(topology::NodeId node) const;
  // Refreshes loaded latencies from the traffic measured in the last epoch.
  void RefreshContention(double epoch_dt_ns);
  // Drains the epoch latency buffer into the result histograms, in
  // completion order (see OnComplete).
  void FlushLatencyBatch();
  // One op's completion: the only event the server schedules.
  struct Completion {
    double submit_time;
    bool is_write;
  };

  void Dispatch();
  void OnComplete(const Completion& done);
  void SubmitOne();

  const topology::Platform& platform_;
  KvStore& store_;
  workload::OpSource& workload_;
  KvServerConfig config_;
  os::TieredMemory* tiering_;
  telemetry::MetricRegistry* telemetry_;
  fault::FaultInjector* faults_;
  telemetry::TraceBuffer::TrackId kv_track_ = 0;
  uint64_t epoch_index_ = 0;
  Rng rng_;

  sim::EventHeap<Completion> events_;
  std::deque<std::pair<double, workload::YcsbOp>> pending_;  // (submit time, op).
  int free_threads_ = 0;
  uint64_t completed_ = 0;
  uint64_t issued_ = 0;

  // Per-node contention state (indexed by NodeId).
  std::vector<NodeState> nodes_;
  NodeState ssd_read_state_;

  // Kernel-side cost of last epoch's migrations (page copies + TLB
  // shootdowns), amortized over the next epoch's operations.
  double migration_stall_ns_per_op_ = 0.0;

  // Persistent traffic model: resources (and their name strings) are built
  // once; epochs only ClearTraffic() and re-add flows. Same add order as a
  // fresh model, so flow ids and solver results are unchanged.
  topology::TrafficModel traffic_;
  // Per-epoch transients (the node->flow map) bump-allocate here; Reset()
  // at each RefreshContention recycles the blocks.
  Arena epoch_arena_;
  // Cached pcm series/gauge handles + kv.kops series, attached lazily at
  // the first telemetry epoch (a sink that sees no epoch registers nothing).
  topology::PcmTelemetryHandles pcm_handles_;
  telemetry::TimeSeries* kv_kops_series_ = nullptr;
  telemetry::TimeSeries* kv_mean_latency_series_ = nullptr;

  // Epoch accumulators.
  std::vector<double> epoch_node_bytes_;
  double epoch_ssd_read_bytes_ = 0.0;
  double epoch_ssd_write_bytes_ = 0.0;
  double epoch_start_ns_ = 0.0;
  double epoch_migrated_bytes_ = 0.0;  // Charged next epoch.

  // Measured latencies buffered per epoch in completion order and flushed
  // into the result histograms in one batch (identical Record order, so
  // snapshots are bit-identical to per-op recording).
  std::vector<double> epoch_latency_us_;
  std::vector<uint8_t> epoch_latency_is_write_;
  // Mean of the batch most recently flushed (this epoch's latencies).
  double epoch_mean_latency_us_ = 0.0;

  Result result_;
  // Running (Welford) mean of every dispatched op's service time.
  double service_mean_ns_ = 0.0;
  uint64_t service_count_ = 0;
  double measure_start_ns_ = 0.0;
  uint64_t measured_ops_ = 0;

  // Load-shedding state (only mutated when an enabled injector is present).
  bool shedding_ = false;
  int degraded_epochs_ = 0;
  double baseline_epoch_kops_ = 0.0;  // First epoch's throughput, the healthy bar.
  uint64_t shed_every_ = 4;           // Reject every k-th arrival while shedding.
  uint64_t dispatch_counter_ = 0;     // Deterministic shed selector.
  // Window the open shed episode was attributed to (kv_shed_off echoes it).
  int32_t shed_window_ = telemetry::kNoWindow;

  // Warm-start cache observability: cache-hit count at the previous epoch's
  // solve, for detecting forced re-solves (solver_cache_invalidate events).
  uint64_t last_cache_hits_ = 0;
  bool have_solver_stats_ = false;
};

}  // namespace cxl::apps::kv

#endif  // CXL_EXPLORER_SRC_APPS_KV_SERVER_H_
