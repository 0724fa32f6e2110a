#include "src/apps/spark/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/mem/access.h"
#include "src/mem/profiles.h"
#include "src/os/numa_policy.h"
#include "src/util/units.h"

namespace cxl::apps::spark {

using mem::AccessMix;
using topology::NodeId;
using topology::NodeKind;
using topology::Platform;
using topology::PlatformOptions;
using topology::TrafficModel;

namespace {

// Per-page cost of a migration observed by the application: TLB shootdown,
// page-table locking, and the brief unavailability of the page under copy.
constexpr double kMigrationStallSecondsPerPage = 60e-6;

}  // namespace

std::string ModeLabel(SparkMemoryMode mode) {
  switch (mode) {
    case SparkMemoryMode::kMmemOnly:
      return "MMEM";
    case SparkMemoryMode::kInterleave:
      return "interleave";
    case SparkMemoryMode::kSpill:
      return "spill";
    case SparkMemoryMode::kHotPromote:
      return "Hot-Promote";
  }
  return "?";
}

SparkConfig SparkConfig::MmemOnly() {
  SparkConfig cfg;
  cfg.mode = SparkMemoryMode::kMmemOnly;
  cfg.servers = 3;
  return cfg;
}

SparkConfig SparkConfig::Interleave(int top, int low) {
  SparkConfig cfg;
  cfg.mode = SparkMemoryMode::kInterleave;
  cfg.top_weight = top;
  cfg.low_weight = low;
  cfg.servers = 2;  // Two CXL servers replace three baseline servers.
  return cfg;
}

SparkConfig SparkConfig::Spill(double fraction) {
  SparkConfig cfg;
  cfg.mode = SparkMemoryMode::kSpill;
  cfg.memory_fraction = fraction;
  cfg.servers = 3;
  return cfg;
}

SparkConfig SparkConfig::HotPromote() {
  SparkConfig cfg;
  cfg.mode = SparkMemoryMode::kHotPromote;
  cfg.servers = 2;
  return cfg;
}

SparkCluster::SparkCluster(SparkConfig config, telemetry::MetricRegistry* telemetry,
                           fault::FaultInjector* faults)
    : config_(config), faults_(faults), telemetry_(telemetry) {
  if (telemetry_ != nullptr) {
    spark_track_ = telemetry_->trace().Track("spark/" + ModeLabel(config_.mode));
  }
  const bool uses_cxl =
      config.mode == SparkMemoryMode::kInterleave || config.mode == SparkMemoryMode::kHotPromote;
  PlatformOptions opt;  // SNC disabled for the Spark experiments (§4.2.1).
  opt.cxl_cards = uses_cxl ? 2 : 0;
  if (config.mode == SparkMemoryMode::kHotPromote) {
    // §4.1/4.2 Hot-Promote setup: main-memory usage capped at half the
    // dataset, the other half starting on CXL. Sizing DRAM to exactly half
    // of the per-server executor memory realises the cap physically.
    const double per_server_mem =
        config.executor_mem_bytes * config.total_executors / config.servers;
    opt.dram_per_socket = static_cast<uint64_t>(per_server_mem / 2.0 / 2.0);
  }
  platform_ = std::make_unique<Platform>(Platform::Build(opt));

  // One modelled server (all servers are symmetric); executors split across
  // its two sockets.
  const int execs_per_server = config.total_executors / config.servers;
  const auto cxl_nodes = platform_->CxlNodes();
  for (int socket = 0; socket < 2; ++socket) {
    ExecutorGroup g;
    g.cpu_socket = socket;
    g.executors = execs_per_server / 2 + (socket == 0 ? execs_per_server % 2 : 0);
    g.node_shares.assign(platform_->nodes().size(), 0.0);
    const NodeId own_dram = platform_->DramNodes(socket)[0];
    if (config.mode == SparkMemoryMode::kInterleave) {
      const double low_share =
          static_cast<double>(config.low_weight) / (config.top_weight + config.low_weight);
      g.node_shares[static_cast<size_t>(own_dram)] = 1.0 - low_share;
      for (NodeId c : cxl_nodes) {
        g.node_shares[static_cast<size_t>(c)] = low_share / cxl_nodes.size();
      }
    } else {
      g.node_shares[static_cast<size_t>(own_dram)] = 1.0;
    }
    groups_.push_back(std::move(g));
  }

  BuildHotPromoteState();
}

double SparkCluster::SpilledBytes(const QueryProfile& query) const {
  if (config_.mode != SparkMemoryMode::kSpill || config_.memory_fraction >= 1.0) {
    return 0.0;
  }
  // Restricting executor memory to fraction f spills the overflow of the
  // query's in-memory demand. Partition skew makes the spill grow faster
  // than the raw capacity gap (hot partitions overflow first).
  const double demand = query.input_working_set_bytes + query.shuffle_bytes;
  const double skew_factor = 1.4;
  return std::min(demand, skew_factor * (1.0 - config_.memory_fraction) * demand);
}

double SparkCluster::SolvePhaseSeconds(double payload_bytes_per_server, double read_fraction,
                                       const std::vector<double>& extra_node_gbps,
                                       double* cxl_share_out) {
  const double dram_idle = mem::GetProfile(mem::MemoryPath::kLocalDram)
                               .IdleLatencyNs(AccessMix{read_fraction, true});
  const AccessMix mix{read_fraction, true};

  // Iterated fixed point between executor processing rate and loaded
  // latency.
  std::vector<std::vector<double>> group_node_latency(groups_.size());
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    group_node_latency[gi].assign(platform_->nodes().size(), 0.0);
    for (const auto& n : platform_->nodes()) {
      group_node_latency[gi][static_cast<size_t>(n.id)] =
          platform_->ProfileFor(groups_[gi].cpu_socket, n.id).IdleLatencyNs(mix);
    }
  }

  std::vector<double> rate(groups_.size(), config_.base_proc_gbps);
  for (int iter = 0; iter < 6; ++iter) {
    TrafficModel traffic(*platform_);
    std::vector<std::vector<TrafficModel::FlowId>> flows(groups_.size());
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      const ExecutorGroup& g = groups_[gi];
      // Effective latency under the group's placement.
      double l_eff = 0.0;
      for (const auto& n : platform_->nodes()) {
        l_eff += g.node_shares[static_cast<size_t>(n.id)] *
                 group_node_latency[gi][static_cast<size_t>(n.id)];
      }
      rate[gi] = config_.base_proc_gbps *
                 std::pow(dram_idle / std::max(l_eff, dram_idle), config_.latency_sensitivity);
      // Offer this round's traffic.
      flows[gi].assign(platform_->nodes().size(), -1);
      const double group_gbps = g.executors * rate[gi] * config_.mem_amplification;
      for (const auto& n : platform_->nodes()) {
        const double share = g.node_shares[static_cast<size_t>(n.id)];
        if (share > 0.0) {
          flows[gi][static_cast<size_t>(n.id)] =
              traffic.AddMemoryTraffic(g.cpu_socket, n.id, mix, group_gbps * share);
        }
      }
    }
    for (const auto& n : platform_->nodes()) {
      const double extra =
          extra_node_gbps.empty() ? 0.0 : extra_node_gbps[static_cast<size_t>(n.id)];
      if (extra > 0.0) {
        traffic.AddMemoryTraffic(0, n.id, AccessMix{0.5, true}, extra);
      }
    }
    const auto sol = traffic.Solve();
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      for (const auto& n : platform_->nodes()) {
        const auto f = flows[gi][static_cast<size_t>(n.id)];
        if (f >= 0) {
          group_node_latency[gi][static_cast<size_t>(n.id)] = sol.flows[f].latency_ns;
        }
      }
    }
  }

  last_group_rates_ = rate;
  // Straggler semantics: the phase ends when the slowest group finishes its
  // (executor-proportional) slice.
  const int execs_per_server = config_.total_executors / config_.servers;
  double phase_seconds = 0.0;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const double t = payload_bytes_per_server / GbpsToBytesPerSec(execs_per_server * rate[gi]);
    phase_seconds = std::max(phase_seconds, t);
  }
  // Cross-server traffic through the NIC: each server receives
  // (servers-1)/servers of its shuffle slice over 100 Gbps Ethernet.
  const double remote_fraction = (config_.servers - 1.0) / config_.servers;
  const double net_seconds =
      payload_bytes_per_server * remote_fraction /
      GbpsToBytesPerSec(config_.network_gbps_per_server);
  phase_seconds = std::max(phase_seconds, net_seconds);

  if (cxl_share_out != nullptr) {
    double cxl_share = 0.0;
    double weight = 0.0;
    for (const auto& g : groups_) {
      for (const auto& n : platform_->nodes()) {
        if (n.kind == NodeKind::kCxl) {
          cxl_share += g.executors * g.node_shares[static_cast<size_t>(n.id)];
        }
      }
      weight += g.executors;
    }
    *cxl_share_out = weight > 0.0 ? cxl_share / weight : 0.0;
  }
  return phase_seconds;
}

void SparkCluster::BuildHotPromoteState() {
  if (config_.mode != SparkMemoryMode::kHotPromote) {
    return;
  }
  // A fresh allocator, region and daemon per query: page-id recycling order
  // and the daemon's adapted threshold cannot leak between queries.
  tiering_.reset();
  region_.reset();
  allocator_ = std::make_unique<os::PageAllocator>(*platform_);
  os::TieringConfig tc;
  tc.policy = config_.tiering_policy;
  tc.promote_rate_limit_mbps = config_.promote_rate_limit_mbps;
  tc.dynamic_threshold = true;
  tc.hint_fault_sample_rate = 0.05;
  tiering_ = std::make_unique<os::TieredMemory>(*allocator_, tc);
  os::TieredMemory::Observers obs;
  obs.telemetry = telemetry_;
  if (faults_ != nullptr && faults_->enabled()) {
    obs.faults = faults_;
  }
  tiering_->Attach(obs);
  // Executor memory of the modelled server, half DRAM / half CXL.
  auto region = os::MemoryRegion::Allocate(
      *allocator_,
      os::NumaPolicy::WeightedInterleave(platform_->DramNodes(), platform_->CxlNodes(), 1, 1),
      static_cast<uint64_t>(config_.executor_mem_bytes * config_.total_executors /
                            config_.servers));
  assert(region.ok());
  region_ = std::make_unique<os::MemoryRegion>(std::move(region).value());
  stream_cursor_ = 0;
  // Placement-driven shares.
  const auto shares = region_->NodeShares();
  for (auto& g : groups_) {
    g.node_shares = shares;
  }
}

std::vector<SparkCluster::GroupRate> SparkCluster::SolveGroupRates(double read_fraction) {
  // Run the same fixed point as SolvePhaseSeconds and read back the rates.
  // (A probe payload; rates are load-dependent only through the fixed point,
  // not through the payload size.)
  std::vector<double> no_extra;
  double unused_share = 0.0;
  SolvePhaseSeconds(static_cast<double>(kGB), read_fraction, no_extra, &unused_share);
  std::vector<GroupRate> out;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    out.push_back(GroupRate{groups_[gi].cpu_socket, groups_[gi].executors,
                            last_group_rates_.empty() ? config_.base_proc_gbps
                                                      : last_group_rates_[gi]});
  }
  return out;
}

QueryResult SparkCluster::RunQuery(const QueryProfile& query) {
  BuildHotPromoteState();
  if (faults_ != nullptr) {
    faults_->AdvanceTo(trace_clock_s_);
  }
  QueryResult result;
  const double payload_per_server = query.shuffle_bytes / config_.servers;
  std::vector<double> extra(platform_->nodes().size(), 0.0);

  // --- Compute (scan/join) phase: mildly latency-sensitive. -----------------
  double cxl_share = 0.0;
  {
    double l_eff_num = 0.0;
    double weight = 0.0;
    const AccessMix read_mix = AccessMix::ReadOnly();
    for (const auto& g : groups_) {
      for (const auto& n : platform_->nodes()) {
        l_eff_num += g.executors * g.node_shares[static_cast<size_t>(n.id)] *
                     platform_->ProfileFor(g.cpu_socket, n.id).IdleLatencyNs(read_mix);
      }
      weight += g.executors;
    }
    const double l_eff = l_eff_num / weight;
    const double dram_idle =
        mem::GetProfile(mem::MemoryPath::kLocalDram).IdleLatencyNs(read_mix);
    result.compute_seconds =
        query.compute_seconds * std::pow(l_eff / dram_idle, 0.35);
  }

  // --- Hot-Promote daemon over the compute phase. ---------------------------
  auto run_tiering = [&](double phase_seconds) {
    if (tiering_ == nullptr || region_ == nullptr) {
      return;
    }
    // Streaming access pattern: a window of pages is "hot" and the window
    // advances every daemon interval — reduced data locality, exactly the
    // regime where the kernel's promotion heuristic thrashes (§4.2.2).
    const double interval_s = 1.0;
    const int ticks = std::max(1, static_cast<int>(phase_seconds / interval_s));
    const size_t pages = region_->page_count();
    const size_t window = std::max<size_t>(1, pages / 50);
    const auto record = [&](os::PageId first, uint64_t count) {
      tiering_->RecordAccessRun(first, count, 400);
    };
    double migrated = 0.0;
    uint64_t migrated_pages = 0;
    for (int t = 0; t < ticks; ++t) {
      // The window's indices, wrapping past the region's end, as id spans.
      const size_t end = stream_cursor_ + window;
      region_->ForEachSpan(stream_cursor_, std::min(end, pages), record);
      if (end > pages) {
        region_->ForEachSpan(0, end - pages, record);
      }
      stream_cursor_ = end % pages;
      const auto tick = tiering_->Tick(interval_s);
      migrated += tick.migrated_bytes;
      migrated_pages += tick.promoted_pages + tick.demoted_pages;
    }
    result.migrated_bytes += migrated;
    // Migration bandwidth interferes with the next phase's traffic.
    const double mig_gbps = GbpsFromBytesPerSec(migrated / std::max(phase_seconds, 1.0));
    for (const auto& n : platform_->nodes()) {
      extra[static_cast<size_t>(n.id)] = mig_gbps / platform_->nodes().size();
    }
    // Application-visible stalls from page unmapping/TLB shootdowns.
    result.compute_seconds += migrated_pages * kMigrationStallSecondsPerPage;
    // Placement changed. Use *access-weighted* shares: the daemon promotes
    // the currently-streamed window, so the share of traffic served by DRAM
    // exceeds DRAM's capacity share — by however much of the window the
    // rate limit managed to move before it went cold (the §4.2.2 tension).
    std::vector<double> shares(platform_->nodes().size(), 0.0);
    double total_heat = 0.0;
    for (size_t i = 0; i < region_->page_count(); ++i) {
      const auto pg = allocator_->page(region_->PageAtIndex(i));
      const double h = pg.heat + 0.01f;  // Floor: cold pages still get touched.
      shares[static_cast<size_t>(pg.node)] += h;
      total_heat += h;
    }
    if (total_heat > 0.0) {
      for (auto& s : shares) {
        s /= total_heat;
      }
      for (auto& g : groups_) {
        // Smooth: placement shifts lag the instantaneous heat snapshot.
        for (size_t i = 0; i < shares.size(); ++i) {
          g.node_shares[i] = 0.5 * g.node_shares[i] + 0.5 * shares[i];
        }
      }
    }
  };
  run_tiering(result.compute_seconds);

  // --- Shuffle write phase (map side): write-heavy (1:2 R:W). ---------------
  result.shuffle_write_seconds =
      SolvePhaseSeconds(payload_per_server, 1.0 / 3.0, extra, &cxl_share);
  run_tiering(result.shuffle_write_seconds);

  // --- Shuffle read phase (reduce side): read-heavy (2:1). ------------------
  result.shuffle_read_seconds =
      SolvePhaseSeconds(payload_per_server, 2.0 / 3.0, extra, &cxl_share);
  result.cxl_access_share = cxl_share;

  // --- Shuffle-fetch failures (fault injection): while a CXL-link fault is
  // active, fetches time out with the configured probability; Spark detects
  // the FetchFailedException on the reduce side and re-executes the failed
  // partitions, serialized after the healthy read wave (stage retry). ------
  if (faults_ != nullptr && faults_->enabled()) {
    faults_->AdvanceTo(trace_clock_s_ + result.compute_seconds + result.shuffle_write_seconds);
    const auto& tun = faults_->tunables();
    const int partitions = std::max(1, tun.spark_shuffle_partitions);
    int failed = 0;
    for (int p = 0; p < partitions; ++p) {
      if (faults_->SampleShuffleFailure(tun.spark_fetch_failure_probability)) {
        ++failed;
      }
    }
    if (failed > 0) {
      result.reexecuted_partitions = failed;
      result.retry_seconds =
          result.shuffle_read_seconds * static_cast<double>(failed) / partitions;
      result.shuffle_read_seconds += result.retry_seconds;
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("spark.reexecuted_partitions")
            .Add(static_cast<uint64_t>(failed));
        // Fetch failures only sample while the link is degraded, so the
        // active link window is the re-execution's cause by construction.
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kSparkShuffleReexec, SecToMs(faults_->now_s()))
                .WithWindow(faults_->ActiveLinkWindow())
                .WithA(failed)
                .WithB(result.retry_seconds));
      }
    }
  }

  // --- Spill traffic (kSpill): shuffle overflow written to and re-read from
  // the NVMe array, serialized with the shuffle phases (Fig. 6). ------------
  result.spilled_bytes = SpilledBytes(query);
  if (result.spilled_bytes > 0.0) {
    // Multi-pass external sort: each spilled byte is written and re-read
    // `spill_amplification` times; dozens of executors interleave their
    // streams on the shared array, well below streaming efficiency.
    const auto& ssd = platform_->SsdProfile();
    const double per_server =
        result.spilled_bytes / config_.servers * config_.spill_amplification;
    const double w_gbps =
        ssd.PeakBandwidthGBps(AccessMix::WriteOnly()) * config_.spill_io_efficiency;
    const double r_gbps =
        ssd.PeakBandwidthGBps(AccessMix::ReadOnly()) * config_.spill_io_efficiency;
    result.shuffle_write_seconds += per_server / GbpsToBytesPerSec(w_gbps);
    result.shuffle_read_seconds += per_server / GbpsToBytesPerSec(r_gbps);
  }

  result.total_seconds =
      result.compute_seconds + result.shuffle_write_seconds + result.shuffle_read_seconds;

  if (telemetry_ != nullptr) {
    // One span per stage, laid end to end on the cluster's query clock.
    const double base_ms = SecToMs(trace_clock_s_);
    telemetry::TraceBuffer& trace = telemetry_->trace();
    trace.Span(spark_track_, query.name + " compute", base_ms, SecToMs(result.compute_seconds));
    trace.Span(spark_track_, query.name + " shuffle-write",
               base_ms + SecToMs(result.compute_seconds), SecToMs(result.shuffle_write_seconds),
               {{"spilled_gb", BytesToGBd(result.spilled_bytes)}});
    trace.Span(spark_track_, query.name + " shuffle-read",
               base_ms + SecToMs(result.compute_seconds + result.shuffle_write_seconds),
               SecToMs(result.shuffle_read_seconds),
               {{"cxl_access_share", result.cxl_access_share}});
    const double end_ms = base_ms + SecToMs(result.total_seconds);
    telemetry::Timeline& timeline = telemetry_->timeline();
    timeline.Sample("spark.query_seconds", end_ms, result.total_seconds);
    timeline.Sample("spark.shuffle_share", end_ms, result.ShuffleShare());
    timeline.Sample("spark.cxl_access_share", end_ms, result.cxl_access_share);
    timeline.Sample("spark.spilled_gb", end_ms, BytesToGBd(result.spilled_bytes));
    timeline.Sample("spark.migrated_gb", end_ms, BytesToGBd(result.migrated_bytes));
    telemetry_->GetCounter("spark.queries").Increment();
    telemetry_->GetCounter("spark.spilled_bytes")
        .Add(static_cast<uint64_t>(result.spilled_bytes));
  }
  trace_clock_s_ += result.total_seconds;
  ++query_index_;
  return result;
}

}  // namespace cxl::apps::spark
