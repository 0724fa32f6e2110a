// Spark cluster model: executors, shuffle phases, spill-to-SSD, and the
// Table 1 memory configurations applied to TPC-H queries (§4.2).
//
// Configurations compared by the paper:
//   - MMEM-only: 3 baseline servers, 50 executors each, everything in DRAM.
//   - Interleave N:M: 2 CXL servers, 75 executors each, executor memory
//     placed by the N:M tiered-interleave policy across DRAM and the CXL
//     cards (which sit on socket 0 — executors on socket 1 reach them
//     through the RSF-limited remote path, a first-class effect here).
//   - Spill-0.8 / Spill-0.6: 3 baseline servers with executor memory capped
//     to 80% / 60%, shuffle data spilling to the NVMe array.
//   - Hot-Promote: 2 CXL servers, 1:1 DRAM/CXL placement with the kernel
//     promotion daemon running — which thrashes on Spark's streaming access
//     pattern (§4.2.2).
//
// A query executes as compute + shuffle-write + shuffle-read phases. Phase
// throughput comes from a fixed point between per-executor processing rate
// (latency-sensitive row processing) and the platform bandwidth model;
// spill adds SSD traffic; Hot-Promote runs the *real* TieredMemory daemon
// against a streaming heat pattern and charges its migration traffic.
#ifndef CXL_EXPLORER_SRC_APPS_SPARK_CLUSTER_H_
#define CXL_EXPLORER_SRC_APPS_SPARK_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/spark/query.h"
#include "src/fault/fault.h"
#include "src/os/page_allocator.h"
#include "src/os/region.h"
#include "src/os/tiering.h"
#include "src/telemetry/metrics.h"
#include "src/topology/platform.h"

namespace cxl::apps::spark {

enum class SparkMemoryMode {
  kMmemOnly,
  kInterleave,
  kSpill,
  kHotPromote,
};

std::string ModeLabel(SparkMemoryMode mode);

struct SparkConfig {
  SparkMemoryMode mode = SparkMemoryMode::kMmemOnly;
  // Interleave ratio (top:low) for kInterleave.
  int top_weight = 1;
  int low_weight = 1;
  // Executor-memory fraction for kSpill (0.8 or 0.6 in the paper).
  double memory_fraction = 1.0;
  // Cluster shape (§4.2.1).
  int servers = 3;                       // 3 baseline / 2 CXL servers.
  int total_executors = 150;             // 1 core, 8 GB each.
  double executor_mem_bytes = 8e9;
  // Per-executor row-processing rate on idle local DRAM (GB of shuffle
  // payload per second per core).
  double base_proc_gbps = 0.11;
  // Memory traffic amplification of shuffle processing (serialize + copy +
  // sort buffers touch each payload byte several times).
  double mem_amplification = 6.0;
  // Sensitivity of the row-processing rate to memory latency (rate scales
  // with (idle_dram_latency / effective_latency)^gamma). Shuffle row
  // processing chases pointers through deserialized records, so it is
  // super-linear in latency.
  double latency_sensitivity = 1.6;
  // Each spilled byte is written and re-read this many times across the
  // sort/merge passes (multi-pass external sort).
  double spill_amplification = 3.0;
  // Effective fraction of the SSD array's streaming bandwidth that
  // concurrent per-executor spill streams achieve (interleaved I/O).
  double spill_io_efficiency = 0.35;
  // 100 Gbps Ethernet per server (§2.4).
  double network_gbps_per_server = 12.5;
  // Promotion rate limit for kHotPromote (MB/s).
  double promote_rate_limit_mbps = 3000.0;
  // PolicyRegistry name of the promotion policy for kHotPromote; empty =
  // the TieringConfig default (hot page selection).
  std::string tiering_policy;

  static SparkConfig MmemOnly();
  static SparkConfig Interleave(int top, int low);
  static SparkConfig Spill(double fraction);
  static SparkConfig HotPromote();
};

struct QueryResult {
  double compute_seconds = 0.0;
  double shuffle_write_seconds = 0.0;
  double shuffle_read_seconds = 0.0;
  double total_seconds = 0.0;
  double spilled_bytes = 0.0;
  double migrated_bytes = 0.0;      // Hot-Promote daemon traffic.
  double cxl_access_share = 0.0;    // Share of memory accesses served by CXL.
  // Fault accounting (zero on healthy runs): shuffle-fetch failures detected
  // on the reduce side and the re-execution time they cost.
  int reexecuted_partitions = 0;
  double retry_seconds = 0.0;

  double ShuffleSeconds() const { return shuffle_write_seconds + shuffle_read_seconds; }
  double ShuffleShare() const {
    return total_seconds > 0.0 ? ShuffleSeconds() / total_seconds : 0.0;
  }
};

class SparkCluster {
 public:
  // `telemetry` (nullable): each RunQuery emits one span per stage
  // (compute / shuffle-write / shuffle-read) on the "spark/<mode>" trace
  // track, per-query series (spark.query_seconds, spark.cxl_access_share,
  // spark.spilled_gb), and — in Hot-Promote mode — the tiering daemon's tick
  // series. Spans are laid out on a per-cluster simulated clock that advances
  // by each query's duration, so consecutive queries form a contiguous
  // timeline.
  //
  // `faults` (nullable): the cluster advances the injector's clock along its
  // query timeline; while a CXL-link fault is active, shuffle fetches fail
  // with the configured probability and the reduce side re-executes the
  // failed partitions (Spark's stage-retry semantics), charged as extra
  // shuffle-read time. A null or disabled injector leaves every query
  // byte-identical to a faultless build.
  explicit SparkCluster(SparkConfig config, telemetry::MetricRegistry* telemetry = nullptr,
                        fault::FaultInjector* faults = nullptr);

  QueryResult RunQuery(const QueryProfile& query);

  // Steady-state per-executor processing rate (GB/s of shuffle payload) for
  // each executor group under the current placement — the fixed point the
  // phase model uses, exposed for the task-level DAG scheduler.
  struct GroupRate {
    int cpu_socket = 0;
    int executors = 0;
    double payload_gbps_per_executor = 0.0;
  };
  std::vector<GroupRate> SolveGroupRates(double read_fraction);

  const SparkConfig& config() const { return config_; }
  const topology::Platform& platform() const { return *platform_; }

 private:
  // One (socket)-group of executors on the modelled server with its memory
  // placement shares over the platform's nodes.
  struct ExecutorGroup {
    int cpu_socket = 0;
    int executors = 0;
    std::vector<double> node_shares;  // Indexed by NodeId; sums to 1.
  };

  // Fixed-point solve of one shuffle phase moving `payload_bytes` per
  // modelled server with `read_fraction` of the memory traffic being reads.
  // `extra_node_gbps` (optional, indexed by NodeId) adds background traffic
  // (migration). Returns the phase duration in seconds and, via out-params,
  // the achieved effective latency share on CXL.
  double SolvePhaseSeconds(double payload_bytes_per_server, double read_fraction,
                           const std::vector<double>& extra_node_gbps, double* cxl_share_out);

  // Spilled bytes for `query` under the current memory fraction.
  double SpilledBytes(const QueryProfile& query) const;

  // Builds the Hot-Promote allocator, 1:1 DRAM/CXL region and daemon with
  // cold hotness state (Hot-Promote mode only): at construction, so the
  // placement shares SolveGroupRates sees are the region's, and again before
  // every query, since queries are measured as independent runs.
  void BuildHotPromoteState();

  SparkConfig config_;
  std::unique_ptr<topology::Platform> platform_;  // One modelled server.
  std::vector<ExecutorGroup> groups_;
  // Hot-Promote machinery (only in kHotPromote mode).
  std::unique_ptr<os::PageAllocator> allocator_;
  std::unique_ptr<os::TieredMemory> tiering_;
  std::unique_ptr<os::MemoryRegion> region_;
  uint64_t stream_cursor_ = 0;  // Streaming-hotness window position.
  std::vector<double> last_group_rates_;  // Rates from the latest phase solve.

  // Fault injector (nullable; observational clock advance + failure draws).
  fault::FaultInjector* faults_ = nullptr;

  // Telemetry (observational only).
  telemetry::MetricRegistry* telemetry_ = nullptr;
  telemetry::TraceBuffer::TrackId spark_track_ = 0;
  double trace_clock_s_ = 0.0;  // Accumulated query time for span layout.
  uint64_t query_index_ = 0;
};

}  // namespace cxl::apps::spark

#endif  // CXL_EXPLORER_SRC_APPS_SPARK_CLUSTER_H_
