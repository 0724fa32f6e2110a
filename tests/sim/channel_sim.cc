#include "tests/sim/channel_sim.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>

#include "src/sim/event_heap.h"

namespace cxl::sim {

double MemoryChannelSim::CapacityGBps() const {
  const double mean_service =
      0.5 * (config_.row_hit_service_ns + config_.row_miss_service_ns);
  return config_.banks * config_.access_bytes / mean_service;
}

ChannelSimPoint MemoryChannelSim::Run(double offered_gbps) const {
  assert(offered_gbps > 0.0);
  // A request arriving at the controller, or a bank finishing the request
  // that arrived at `arrival_time`.
  struct Event {
    enum class Kind : uint8_t { kArrival, kCompletion } kind;
    size_t bank;
    double arrival_time;
  };
  EventHeap<Event> events;
  Rng rng(config_.seed);

  const double arrival_rate = offered_gbps / config_.access_bytes;  // Req/ns.
  const double mean_gap_ns = 1.0 / arrival_rate;

  // Per-bank FIFO queues: a request is bound to a bank (DRAM addresses map
  // to specific banks); the controller's reordering freedom is modelled as
  // steering each request to the shortest of `scheduler_choices` candidate
  // banks (power-of-d-choices).
  struct Bank {
    bool busy = false;
    std::deque<double> queue;  // Arrival timestamps.
  };
  std::vector<Bank> banks(static_cast<size_t>(config_.banks));
  Histogram latency(1.0, 1e8, 96);
  uint64_t completed = 0;
  uint64_t issued = 0;
  double last_completion = 0.0;

  auto draw_service = [&] {
    return rng.NextDouble(config_.row_hit_service_ns, config_.row_miss_service_ns);
  };

  auto start_service = [&](size_t bank, double arrival_time) {
    banks[bank].busy = true;
    const double service = draw_service();
    events.Push(events.Now() + service, Event{Event::Kind::kCompletion, bank, arrival_time});
  };

  auto arrive = [&] {
    if (issued >= config_.requests) {
      return;
    }
    ++issued;
    // Power-of-d-choices bank steering; a fraction of requests are
    // conflict-bound (row locality / dependence) and cannot be steered.
    size_t best = rng.NextBounded(static_cast<uint64_t>(config_.banks));
    const int choices = rng.NextBool(config_.steerable_fraction) ? config_.scheduler_choices : 1;
    for (int d = 1; d < choices; ++d) {
      const size_t cand = rng.NextBounded(static_cast<uint64_t>(config_.banks));
      const size_t best_depth = banks[best].queue.size() + (banks[best].busy ? 1 : 0);
      const size_t cand_depth = banks[cand].queue.size() + (banks[cand].busy ? 1 : 0);
      if (cand_depth < best_depth) {
        best = cand;
      }
    }
    Bank& b = banks[best];
    if (!b.busy) {
      start_service(best, events.Now());
    } else {
      b.queue.push_back(events.Now());
    }
    events.Push(events.Now() + rng.NextExponential(mean_gap_ns),
                Event{Event::Kind::kArrival, 0, 0.0});
  };

  auto complete = [&](size_t bank, double arrival_time) {
    ++completed;
    last_completion = events.Now();
    latency.Record(config_.pipeline_ns + (events.Now() - arrival_time));
    Bank& b = banks[bank];
    if (!b.queue.empty()) {
      const double queued_arrival = b.queue.front();
      b.queue.pop_front();
      start_service(bank, queued_arrival);
    } else {
      b.busy = false;
    }
  };

  events.Push(0.0, Event{Event::Kind::kArrival, 0, 0.0});
  while (!events.empty()) {
    const Event ev = events.Pop();
    if (ev.kind == Event::Kind::kArrival) {
      arrive();
    } else {
      complete(ev.bank, ev.arrival_time);
    }
  }

  ChannelSimPoint pt;
  pt.offered_gbps = offered_gbps;
  pt.mean_latency_ns = latency.mean();
  pt.p99_latency_ns = latency.p99();
  pt.achieved_gbps =
      last_completion > 0.0 ? static_cast<double>(completed) * config_.access_bytes / last_completion
                            : 0.0;
  pt.utilization = offered_gbps / CapacityGBps();
  return pt;
}

std::vector<ChannelSimPoint> MemoryChannelSim::Sweep(int points) const {
  std::vector<ChannelSimPoint> out;
  out.reserve(static_cast<size_t>(points));
  const double cap = CapacityGBps();
  for (int i = 0; i < points; ++i) {
    const double frac = 0.05 + 0.92 * static_cast<double>(i) / (points - 1);
    out.push_back(Run(frac * cap));
  }
  return out;
}

}  // namespace cxl::sim
