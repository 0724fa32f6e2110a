#include "src/apps/kv/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/mem/access.h"
#include "src/mem/profiles.h"
#include "src/topology/pcm.h"
#include "src/util/units.h"

namespace cxl::apps::kv {

using mem::AccessMix;
using workload::YcsbOp;
using EpochSample = KvServerSim::EpochSample;

KvServerSim::KvServerSim(const topology::Platform& platform, KvStore& store,
                         workload::OpSource& workload, KvServerConfig config,
                         os::TieredMemory* tiering, telemetry::MetricRegistry* telemetry,
                         fault::FaultInjector* faults)
    : platform_(platform),
      store_(store),
      workload_(workload),
      config_(config),
      tiering_(tiering),
      telemetry_(telemetry),
      faults_(faults),
      rng_(config.seed),
      traffic_(platform) {
  if (faults_ != nullptr && faults_->enabled()) {
    const double shed_fraction = faults_->tunables().shed_fraction;
    shed_every_ = shed_fraction > 0.0
                      ? std::max<uint64_t>(2, static_cast<uint64_t>(1.0 / shed_fraction + 0.5))
                      : std::numeric_limits<uint64_t>::max();
    if (tiering_ != nullptr) {
      // Full observer set: the daemon's telemetry is this server's sink (the
      // same registry the caller attached at construction, so the daemon
      // keeps its cached handles and trace track).
      os::TieredMemory::Observers obs;
      obs.telemetry = telemetry_;
      obs.faults = faults_;
      tiering_->Attach(obs);
    }
  }
  if (telemetry_ != nullptr) {
    kv_track_ = telemetry_->trace().Track("kv-server");
  }
  free_threads_ = config_.server_threads;
  nodes_.resize(platform.nodes().size());
  epoch_node_bytes_.assign(platform.nodes().size(), 0.0);
  const AccessMix mix{1.0 - workload.WriteFraction(), true};
  for (const auto& n : platform.nodes()) {
    const auto& prof = platform.ProfileFor(config_.cpu_socket, n.id);
    nodes_[static_cast<size_t>(n.id)].idle_latency_ns = prof.IdleLatencyNs(mix);
    nodes_[static_cast<size_t>(n.id)].mean_latency_ns = prof.IdleLatencyNs(mix);
  }
  ssd_read_state_.idle_latency_ns = platform.SsdProfile().IdleLatencyNs(AccessMix::ReadOnly());
  ssd_read_state_.mean_latency_ns = ssd_read_state_.idle_latency_ns;
}

double KvServerSim::FaultLatencyFactor(topology::NodeId node) const {
  if (faults_ == nullptr || !faults_->enabled() || node < 0) {
    return 1.0;
  }
  const bool is_cxl = platform_.node(node).kind == topology::NodeKind::kCxl;
  return is_cxl ? faults_->CxlLatencyFactor() : faults_->DramLatencyFactor();
}

double KvServerSim::ServiceTimeNs(const YcsbOp& op) {
  const KvStore::OpCost cost = store_.Access(op);
  const bool faulty = faults_ != nullptr && faults_->enabled();

  // CPU component with mild heavy-tail jitter (parsing, allocation, the
  // occasional expensive event-loop iteration).
  double ns = rng_.NextPareto(store_.config().cpu_ns_per_op, 6.0);
  ns += cost.software_ns;
  // Kernel migration work (page copies, TLB shootdowns) steals CPU from the
  // event loops while the daemon is churning.
  ns += migration_stall_ns_per_op_;

  // Memory stalls: `mem_lines` dependent accesses at the node's current
  // loaded latency. The sum of many near-exponential stall times is
  // approximately Gaussian: mean L*n, stddev ~ excess * sqrt(n). Active
  // faults (lane down-training, CRC storms, DRAM throttle) inflate the
  // loaded latency by their derived factor; the factor is exactly 1.0 on a
  // healthy run so the arithmetic below is unchanged.
  if (cost.node >= 0 && cost.mem_lines > 0.0) {
    const NodeState& st = nodes_[static_cast<size_t>(cost.node)];
    const double lat_factor = FaultLatencyFactor(cost.node);
    const double loaded_ns = st.mean_latency_ns * lat_factor;
    const double mean = loaded_ns * cost.mem_lines;
    const double excess = std::max(0.0, loaded_ns - st.idle_latency_ns) + 20.0;
    const double sigma = excess * std::sqrt(cost.mem_lines);
    const double floor_ns = st.idle_latency_ns * cost.mem_lines * 0.5;
    ns += std::max(floor_ns, rng_.NextGaussian(mean, sigma));
    epoch_node_bytes_[static_cast<size_t>(cost.node)] += cost.mem_lines * 64.0;

    // Poisoned cacheline: the read observes a poison indication and the
    // server rereads the line a bounded number of times (the retries cost
    // full memory stalls, charged deterministically), then quarantines the
    // page through the tiering daemon so it cannot be promoted back into
    // the hot set. The sample draws from the injector's private RNG, and
    // only while a poison event is active — never on healthy runs.
    if (faulty && !cost.is_write && faults_->SamplePoisonedRead()) {
      const int retries = std::max(1, faults_->tunables().poison_read_retries);
      ns += loaded_ns * cost.mem_lines * retries;
      epoch_node_bytes_[static_cast<size_t>(cost.node)] += cost.mem_lines * 64.0 * retries;
      ++result_.poisoned_reads;
      result_.poison_retries += static_cast<uint64_t>(retries);
      const int32_t poison_window =
          faults_->ActiveWindowOf(fault::FaultType::kPoisonedCacheline);
      if (telemetry_ != nullptr) {
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kKvPoisonRetry, NsToMs(events_.Now()))
                .WithWindow(poison_window)
                .WithA(retries)
                .WithB(static_cast<double>(cost.page)));
      }
      if (tiering_ != nullptr && cost.page != os::kInvalidPage &&
          tiering_->QuarantinePage(cost.page)) {
        ++result_.quarantined_pages;
        if (telemetry_ != nullptr) {
          telemetry_->events().Record(
              telemetry::Event(telemetry::EventKind::kKvQuarantine, NsToMs(events_.Now()))
                  .WithWindow(poison_window)
                  .WithA(static_cast<double>(cost.page)));
        }
      }
    }
  }

  // Foreground SSD read (KeyDB-FLASH cache miss): idle latency plus
  // exponential queueing excess at the current SSD utilization.
  if (cost.ssd_read) {
    const double mean_excess =
        std::max(0.0, ssd_read_state_.mean_latency_ns - ssd_read_state_.idle_latency_ns);
    ns += ssd_read_state_.idle_latency_ns +
          (mean_excess > 0.0 ? rng_.NextExponential(mean_excess) : 0.0);
    epoch_ssd_read_bytes_ += static_cast<double>(cost.ssd_read_bytes);
    // Flash-tier IO error: the read times out (a multiple of the idle
    // latency) and is retried once against a healthy replica/path.
    if (faulty && faults_->SampleFlashError()) {
      ns += ssd_read_state_.idle_latency_ns * faults_->tunables().flash_timeout_factor +
            ssd_read_state_.idle_latency_ns;
      epoch_ssd_read_bytes_ += static_cast<double>(cost.ssd_read_bytes);
      ++result_.flash_errors;
      if (telemetry_ != nullptr) {
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kKvFlashRetry, NsToMs(events_.Now()))
                .WithWindow(faults_->ActiveWindowOf(fault::FaultType::kFlashIoError))
                .WithA(faults_->tunables().flash_timeout_factor));
      }
    }
  }
  // Background persistence traffic (WAL / flush / compaction): charged to
  // SSD bandwidth, not to this op's latency.
  epoch_ssd_write_bytes_ += static_cast<double>(cost.ssd_write_bytes);
  return ns;
}

void KvServerSim::RefreshContention(double epoch_dt_ns) {
  if (epoch_dt_ns <= 0.0) {
    return;
  }
  const double dt_sec = NsToSec(epoch_dt_ns);
  if (faults_ != nullptr) {
    faults_->AdvanceTo(NsToSec(events_.Now()));
  }
  epoch_arena_.Reset();
  traffic_.ClearTraffic();
  const AccessMix mix{1.0 - workload_.WriteFraction(), true};

  ArenaVector<topology::TrafficModel::FlowId> node_flow{
      ArenaAllocator<topology::TrafficModel::FlowId>(&epoch_arena_)};
  node_flow.assign(platform_.nodes().size(), -1);
  for (const auto& n : platform_.nodes()) {
    const double gbps = epoch_node_bytes_[static_cast<size_t>(n.id)] / epoch_dt_ns;
    if (gbps > 0.0) {
      node_flow[static_cast<size_t>(n.id)] =
          traffic_.AddMemoryTraffic(config_.cpu_socket, n.id, mix, gbps);
    }
  }
  // Migration traffic from the previous daemon tick: a read stream on the
  // CXL side and a write stream on the DRAM side (promotion direction
  // dominates; demotion is symmetric enough for this accounting).
  if (epoch_migrated_bytes_ > 0.0) {
    const double mig_gbps = epoch_migrated_bytes_ / epoch_dt_ns;
    for (const auto& n : platform_.nodes()) {
      const bool is_cxl = n.kind == topology::NodeKind::kCxl;
      traffic_.AddMemoryTraffic(config_.cpu_socket, n.id,
                                is_cxl ? AccessMix::ReadOnly() : AccessMix::WriteOnly(),
                                mig_gbps / static_cast<double>(platform_.nodes().size()));
    }
  }

  topology::TrafficModel::FlowId ssd_read_flow = -1;
  const double ssd_read_gbps = epoch_ssd_read_bytes_ / epoch_dt_ns;
  const double ssd_write_gbps = epoch_ssd_write_bytes_ / epoch_dt_ns;
  if (ssd_read_gbps > 0.0) {
    ssd_read_flow = traffic_.AddSsdTraffic(AccessMix::ReadOnly(), ssd_read_gbps);
  }
  if (ssd_write_gbps > 0.0) {
    traffic_.AddSsdTraffic(AccessMix::WriteOnly(), ssd_write_gbps);
  }

  topology::TrafficModel::Solution sol;
  {
    const auto timer =
        telemetry::EpochProfiler::Time(config_.profiler, telemetry::EpochProfiler::kSolver);
    sol = traffic_.Solve();
  }
  // Warm-start cache observability: a Solve that did not raise the hit
  // counter was a forced re-solve (traffic changed enough to invalidate the
  // memo). The first epoch's cold solve is expected, not an invalidation.
  if (telemetry_ != nullptr) {
    const uint64_t hits = traffic_.solver_cache_hits();
    if (have_solver_stats_ && hits == last_cache_hits_) {
      double achieved_gbps = 0.0;
      for (const auto& f : sol.flows) {
        achieved_gbps += f.achieved_gbps;
      }
      const int32_t window = (faults_ != nullptr && faults_->enabled())
                                 ? faults_->AttributedWindow()
                                 : telemetry::kNoWindow;
      telemetry_->events().Record(
          telemetry::Event(telemetry::EventKind::kSolverCacheInvalidate, NsToMs(events_.Now()))
              .WithWindow(window)
              .WithA(achieved_gbps)
              .WithB(sol.solver_iterations));
    }
    last_cache_hits_ = hits;
    have_solver_stats_ = true;
  }
  for (const auto& n : platform_.nodes()) {
    const auto flow = node_flow[static_cast<size_t>(n.id)];
    if (flow >= 0) {
      nodes_[static_cast<size_t>(n.id)].mean_latency_ns = sol.flows[flow].latency_ns;
    }
  }
  if (ssd_read_flow >= 0) {
    ssd_read_state_.mean_latency_ns = sol.flows[ssd_read_flow].latency_ns;
  }

  // Telemetry (last epoch wins; the run ends in steady state).
  result_.mem_traffic_gbps = 0.0;
  for (double b : epoch_node_bytes_) {
    result_.mem_traffic_gbps += b / epoch_dt_ns;
  }
  result_.ssd_read_gbps = ssd_read_gbps;
  result_.ssd_write_gbps = ssd_write_gbps;

  std::fill(epoch_node_bytes_.begin(), epoch_node_bytes_.end(), 0.0);
  epoch_ssd_read_bytes_ = 0.0;
  epoch_ssd_write_bytes_ = 0.0;
  epoch_migrated_bytes_ = 0.0;

  // Timeline sample for this epoch.
  EpochSample sample;
  sample.end_ms = NsToMs(events_.Now());
  sample.kops = static_cast<double>(config_.epoch_ops) / epoch_dt_ns * kNsPerMs;
  sample.mean_latency_us = epoch_mean_latency_us_;

  // Shed arming: the first epoch's throughput is the healthy bar; after
  // `shed_arm_epochs` consecutive epochs below bar/shed_latency_factor the
  // server starts shedding, and it recovers the moment an epoch clears the
  // bar again. Only evaluated with an enabled injector — healthy runs never
  // touch this state.
  if (faults_ != nullptr && faults_->enabled()) {
    const auto& tun = faults_->tunables();
    const bool was_shedding = shedding_;
    if (baseline_epoch_kops_ <= 0.0) {
      baseline_epoch_kops_ = sample.kops;
    } else if (sample.kops * tun.shed_latency_factor < baseline_epoch_kops_) {
      ++degraded_epochs_;
      if (degraded_epochs_ >= tun.shed_arm_epochs) {
        shedding_ = true;
      }
    } else {
      degraded_epochs_ = 0;
      shedding_ = false;
    }
    if (telemetry_ != nullptr && shedding_ != was_shedding) {
      if (shedding_) {
        // Shedding only arms after fault-driven degradation, so a window
        // with start <= now exists; the guard keeps the contract airtight.
        const int32_t window = faults_->AttributedWindow();
        if (window != telemetry::kNoWindow) {
          shed_window_ = window;
          telemetry_->events().Record(
              telemetry::Event(telemetry::EventKind::kKvShedOn, sample.end_ms)
                  .WithWindow(window)
                  .WithA(baseline_epoch_kops_)
                  .WithB(sample.kops));
        }
      } else if (shed_window_ != telemetry::kNoWindow) {
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kKvShedOff, sample.end_ms)
                .WithWindow(shed_window_)
                .WithA(baseline_epoch_kops_)
                .WithB(sample.kops));
        shed_window_ = telemetry::kNoWindow;
      }
    }
    if (shedding_) {
      ++result_.shed_epochs;
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("kv.shed_epochs").Add(1);
      }
    }
  }

  if (telemetry_ != nullptr) {
    const auto timer =
        telemetry::EpochProfiler::Time(config_.profiler, telemetry::EpochProfiler::kTelemetry);
    const double t_ms = sample.end_ms;
    const auto snap = topology::TakePcmSnapshot(platform_, sol);
    if (!pcm_handles_.attached) {
      pcm_handles_ = topology::AttachPcmTelemetry(*telemetry_, snap);
      kv_kops_series_ = &telemetry_->timeline().Series("kv.kops");
      kv_mean_latency_series_ = &telemetry_->timeline().Series("kv.mean_latency_us");
    }
    topology::SamplePcmSnapshot(pcm_handles_, t_ms, snap);
    // Per-path bandwidth gauges: the latest epoch wins, and the run ends in
    // steady state, so these read like the final pcm-memory screen.
    topology::SetPcmGauges(pcm_handles_, snap);
    kv_kops_series_->Sample(t_ms, sample.kops);
    kv_mean_latency_series_->Sample(t_ms, sample.mean_latency_us);
    telemetry_->trace().Span(kv_track_, "epoch " + std::to_string(epoch_index_),
                             t_ms - NsToMs(epoch_dt_ns), NsToMs(epoch_dt_ns), {{"kops", sample.kops}});
  }
  ++epoch_index_;

  // Promotion daemon runs on the same cadence.
  migration_stall_ns_per_op_ = 0.0;
  if (tiering_ != nullptr) {
    const auto timer =
        telemetry::EpochProfiler::Time(config_.profiler, telemetry::EpochProfiler::kScan);
    const auto tick = tiering_->Tick(dt_sec);
    epoch_migrated_bytes_ = tick.migrated_bytes;
    result_.migrated_bytes += tick.migrated_bytes;
    // ~15 us of kernel work per migrated 16 KiB page (copy + unmap + TLB
    // shootdown), amortized over the coming epoch's ops.
    constexpr double kStallNsPerPage = 8'000.0;
    const double pages = static_cast<double>(tick.promoted_pages + tick.demoted_pages);
    migration_stall_ns_per_op_ = pages * kStallNsPerPage / static_cast<double>(config_.epoch_ops);
    sample.migrated_mb = BytesToMBd(tick.migrated_bytes);
  }
  result_.timeline.push_back(sample);
}

void KvServerSim::SubmitOne() {
  if (issued_ >= config_.total_ops) {
    return;
  }
  ++issued_;
  pending_.emplace_back(events_.Now(), workload_.Next());
  Dispatch();
}

void KvServerSim::Dispatch() {
  while (free_threads_ > 0 && !pending_.empty()) {
    auto [submit_time, op] = pending_.front();
    pending_.pop_front();
    --free_threads_;
    // Load shedding: after sustained degradation the server rejects a
    // deterministic 1-in-k of arrivals with a fast error reply — no store
    // access, no RNG draw — trading availability of a slice of requests for
    // bounded latency on the rest.
    ++dispatch_counter_;
    if (shedding_ && dispatch_counter_ % shed_every_ == 0) {
      ++result_.shed_ops;
      constexpr double kShedReplyNs = 2'000.0;
      events_.Push(events_.Now() + kShedReplyNs,
                   Completion{submit_time, op.type != YcsbOp::Type::kRead});
      continue;
    }
    const double service_ns = ServiceTimeNs(op);
    ++service_count_;
    service_mean_ns_ += (service_ns - service_mean_ns_) / static_cast<double>(service_count_);
    events_.Push(events_.Now() + service_ns,
                 Completion{submit_time, op.type != YcsbOp::Type::kRead});
  }
}

void KvServerSim::FlushLatencyBatch() {
  if (epoch_latency_us_.empty()) {
    epoch_mean_latency_us_ = 0.0;
    return;
  }
  // Mean of this epoch's batch, summed in completion (index) order so the
  // value is independent of --jobs.
  double sum_us = 0.0;
  for (const double v : epoch_latency_us_) {
    sum_us += v;
  }
  epoch_mean_latency_us_ = sum_us / static_cast<double>(epoch_latency_us_.size());
  // Completion order throughout: each histogram sees the exact Record
  // sequence per-op recording produced, so the (order-sensitive) running
  // sums match bit for bit. One bucket lookup per latency serves all three.
  result_.all_latency_us.RecordBatchSplit(epoch_latency_us_.data(), epoch_latency_is_write_.data(),
                                          epoch_latency_us_.size(), result_.read_latency_us,
                                          result_.update_latency_us);
  epoch_latency_us_.clear();
  epoch_latency_is_write_.clear();
}

void KvServerSim::OnComplete(const Completion& done) {
  ++free_threads_;
  ++completed_;
  const double latency_us = NsToUs(events_.Now() - done.submit_time);
  if (completed_ > config_.warmup_ops) {
    if (measured_ops_ == 0) {
      measure_start_ns_ = events_.Now();
    }
    ++measured_ops_;
    epoch_latency_us_.push_back(latency_us);
    epoch_latency_is_write_.push_back(done.is_write ? 1 : 0);
  }
  if (completed_ % config_.epoch_ops == 0) {
    FlushLatencyBatch();
    RefreshContention(events_.Now() - epoch_start_ns_);
    epoch_start_ns_ = events_.Now();
  }
  SubmitOne();   // Closed loop: this client issues its next request.
  Dispatch();
}

KvServerSim::Result KvServerSim::Run() {
  for (int c = 0; c < config_.client_connections; ++c) {
    SubmitOne();
  }
  while (!events_.empty()) {
    OnComplete(events_.Pop());
  }
  FlushLatencyBatch();  // Tail of a run whose total_ops is not epoch-aligned.
  const double measured_ns = events_.Now() - measure_start_ns_;
  if (measured_ns > 0.0 && measured_ops_ > 1) {
    result_.throughput_kops = static_cast<double>(measured_ops_) / measured_ns * kNsPerMs;
  }
  result_.dram_share = store_.DramShare();
  result_.avg_service_us = NsToUs(service_mean_ns_);
  return result_;
}

}  // namespace cxl::apps::kv
