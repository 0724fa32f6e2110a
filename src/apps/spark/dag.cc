#include "src/apps/spark/dag.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/sim/event_heap.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cxl::apps::spark {

DagQuery BuildDag(const QueryProfile& profile, const SparkConfig& config, int tasks_per_stage) {
  const int execs_per_server = config.total_executors / config.servers;
  if (tasks_per_stage <= 0) {
    tasks_per_stage = 2 * execs_per_server;  // Two task waves per stage.
  }
  const double payload_per_server = profile.shuffle_bytes / config.servers;
  // The compute stage's "payload" is synthetic: sized so that at the base
  // processing rate its duration equals the profile's compute seconds.
  const double compute_bytes =
      GbpsToBytesPerSec(profile.compute_seconds * execs_per_server * config.base_proc_gbps);

  DagQuery dag;
  dag.name = profile.name;
  // Scan/compute is far less latency-sensitive than shuffle row processing
  // (0.35 vs the configured 1.6) — matching the analytic model's compute
  // scaling.
  dag.stages.push_back(StageSpec{"scan-compute", tasks_per_stage,
                                 compute_bytes / tasks_per_stage, 1.0, {}, false, 0.35});
  dag.stages.push_back(StageSpec{"shuffle-write", tasks_per_stage,
                                 payload_per_server / tasks_per_stage, 1.0 / 3.0, {0}, false,
                                 -1.0});
  dag.stages.push_back(StageSpec{"shuffle-read", tasks_per_stage,
                                 payload_per_server / tasks_per_stage, 2.0 / 3.0, {1}, true,
                                 -1.0});
  return dag;
}

DagResult DagScheduler::Run(const DagQuery& query, double jitter, uint64_t seed) {
  const SparkConfig& cfg = cluster_.config();
  const int execs_per_server = cfg.total_executors / cfg.servers;
  Rng rng(seed);
  // One task's completion: the only event the scheduler schedules.
  struct TaskDone {
    int stage_id;
  };
  sim::EventHeap<TaskDone> events;

  // Per-stage executor rates, solved once per distinct read fraction
  // through the same contention fixed point the fluid model uses.
  std::vector<std::vector<SparkCluster::GroupRate>> stage_rates;
  stage_rates.reserve(query.stages.size());
  for (const StageSpec& stage : query.stages) {
    stage_rates.push_back(cluster_.SolveGroupRates(stage.read_fraction));
  }

  DagResult result;
  result.stages.resize(query.stages.size());
  std::vector<int> remaining_deps(query.stages.size(), 0);
  std::vector<std::vector<int>> dependents(query.stages.size());
  for (size_t si = 0; si < query.stages.size(); ++si) {
    remaining_deps[si] = static_cast<int>(query.stages[si].depends_on.size());
    for (int dep : query.stages[si].depends_on) {
      dependents[static_cast<size_t>(dep)].push_back(static_cast<int>(si));
    }
  }

  // Scheduler state.
  std::deque<std::pair<int, double>> ready_tasks;  // (stage id, bytes).
  std::vector<int> tasks_left(query.stages.size(), 0);
  int free_slots = execs_per_server;
  double busy_seconds = 0.0;

  // Current rate per group, per active stage. Tasks are FIFO across stages
  // (Spark runs one stage's tasks at a time per barrier in this shape, but
  // independent stages could interleave).
  auto slot_rate = [&](int stage_id) {
    // Pick the group round-robin weighted by executor counts: approximate by
    // sampling a group proportionally.
    const auto& rates = stage_rates[static_cast<size_t>(stage_id)];
    uint64_t total = 0;
    for (const auto& g : rates) {
      total += static_cast<uint64_t>(g.executors);
    }
    uint64_t pick = rng.NextBounded(std::max<uint64_t>(total, 1));
    double rate = rates.empty() ? cfg.base_proc_gbps : rates.back().payload_gbps_per_executor;
    for (const auto& g : rates) {
      if (pick < static_cast<uint64_t>(g.executors)) {
        rate = g.payload_gbps_per_executor;
        break;
      }
      pick -= static_cast<uint64_t>(g.executors);
    }
    // Re-scale to the stage's own latency sensitivity: the solved rate is
    // base*(idle/L)^s_cfg, so (rate/base)^(s_stage/s_cfg) converts it.
    const double s_stage = query.stages[static_cast<size_t>(stage_id)].latency_sensitivity;
    if (s_stage >= 0.0 && cfg.latency_sensitivity > 0.0 && rate < cfg.base_proc_gbps) {
      rate = cfg.base_proc_gbps *
             std::pow(rate / cfg.base_proc_gbps, s_stage / cfg.latency_sensitivity);
    }
    return rate;
  };

  // Queues every task of a stage whose dependencies have all finished.
  // Dispatch drains the FIFO in order, so queueing several stages before
  // one dispatch() starts the same tasks as a dispatch after each.
  auto stage_ready = [&](int stage_id) {
    const StageSpec& stage = query.stages[static_cast<size_t>(stage_id)];
    result.stages[static_cast<size_t>(stage_id)].name = stage.name;
    result.stages[static_cast<size_t>(stage_id)].start_seconds = events.Now();
    tasks_left[static_cast<size_t>(stage_id)] = stage.tasks;
    for (int t = 0; t < stage.tasks; ++t) {
      ready_tasks.emplace_back(stage_id, stage.bytes_per_task);
    }
  };

  auto dispatch = [&] {
    while (free_slots > 0 && !ready_tasks.empty()) {
      auto [stage_id, bytes] = ready_tasks.front();
      ready_tasks.pop_front();
      --free_slots;
      const StageSpec& stage = query.stages[static_cast<size_t>(stage_id)];
      double seconds = bytes / GbpsToBytesPerSec(slot_rate(stage_id));
      if (stage.crosses_network) {
        const double remote_fraction = (cfg.servers - 1.0) / cfg.servers;
        const double net_seconds = bytes * remote_fraction /
                                   (GbpsToBytesPerSec(cfg.network_gbps_per_server) / execs_per_server);
        seconds = std::max(seconds, net_seconds);
      }
      if (jitter > 0.0) {
        seconds *= std::max(0.3, rng.NextGaussian(1.0, jitter));
      }
      busy_seconds += seconds;
      StageResult& sr = result.stages[static_cast<size_t>(stage_id)];
      sr.mean_task_seconds += seconds / stage.tasks;
      sr.max_task_seconds = std::max(sr.max_task_seconds, seconds);
      events.Push(events.Now() + seconds, TaskDone{stage_id});
    }
  };

  for (size_t si = 0; si < query.stages.size(); ++si) {
    if (remaining_deps[si] == 0) {
      stage_ready(static_cast<int>(si));
    }
  }
  dispatch();
  while (!events.empty()) {
    const auto stage_id = static_cast<size_t>(events.Pop().stage_id);
    ++free_slots;
    if (--tasks_left[stage_id] == 0) {
      result.stages[stage_id].end_seconds = events.Now();
      for (int dep : dependents[stage_id]) {
        if (--remaining_deps[static_cast<size_t>(dep)] == 0) {
          stage_ready(dep);
        }
      }
    }
    dispatch();
  }

  // The event heap's time unit is the caller's; this scheduler runs it in
  // seconds.
  result.makespan_seconds = events.Now();
  const double slot_seconds = result.makespan_seconds * execs_per_server;
  result.executor_utilization = slot_seconds > 0.0 ? busy_seconds / slot_seconds : 0.0;
  return result;
}

}  // namespace cxl::apps::spark
