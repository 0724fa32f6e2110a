#include "src/topology/pcm.h"

#include <algorithm>
#include <string>

namespace cxl::topology {

double PcmSnapshot::MaxUpiUtilization() const {
  double max_util = 0.0;
  for (const auto& u : upi) {
    max_util = std::max(max_util, u.utilization);
  }
  return max_util;
}

PcmSnapshot TakePcmSnapshot(const Platform& platform, const TrafficModel::Solution& solution) {
  PcmSnapshot snap;
  snap.sockets.resize(static_cast<size_t>(platform.socket_count()));
  for (int s = 0; s < platform.socket_count(); ++s) {
    snap.sockets[static_cast<size_t>(s)].socket = s;
  }
  for (const auto& n : platform.nodes()) {
    const auto& stats = solution.nodes[static_cast<size_t>(n.id)];
    if (n.kind == NodeKind::kDram) {
      auto& sock = snap.sockets[static_cast<size_t>(n.socket)];
      sock.dram_read_write_gbps += stats.achieved_gbps;
      // Utilization aggregates conservatively: the max over the socket's
      // domains (one saturated SNC domain is a saturated socket for the
      // workload pinned to it).
      sock.dram_utilization = std::max(sock.dram_utilization, stats.utilization);
    } else {
      snap.cxl_cards.push_back(stats);
    }
  }
  snap.upi = solution.upi;
  return snap;
}

PcmTelemetryHandles AttachPcmTelemetry(telemetry::MetricRegistry& registry,
                                       const PcmSnapshot& shape) {
  PcmTelemetryHandles h;
  telemetry::Timeline& timeline = registry.timeline();
  for (const auto& s : shape.sockets) {
    const std::string base = "pcm.skt" + std::to_string(s.socket);
    h.socket_gbps.push_back(&timeline.Series(base + ".dram_gbps"));
    h.socket_util.push_back(&timeline.Series(base + ".dram_util"));
    h.socket_dram_gauge.push_back(&registry.GetGauge(base + ".dram_gbps"));
  }
  for (size_t i = 0; i < shape.upi.size(); ++i) {
    const std::string base = "pcm.upi" + std::to_string(i);
    h.upi_gbps.push_back(&timeline.Series(base + ".gbps"));
    h.upi_util.push_back(&timeline.Series(base + ".util"));
    h.upi_gauge.push_back(&registry.GetGauge(base + ".gbps"));
  }
  for (size_t i = 0; i < shape.cxl_cards.size(); ++i) {
    const std::string base = "pcm.cxl" + std::to_string(i);
    h.cxl_gbps.push_back(&timeline.Series(base + ".gbps"));
    h.cxl_util.push_back(&timeline.Series(base + ".util"));
    h.cxl_gauge.push_back(&registry.GetGauge(base + ".gbps"));
  }
  h.max_upi_utilization = &registry.GetGauge("pcm.max_upi_utilization");
  h.attached = true;
  return h;
}

void SamplePcmSnapshot(const PcmTelemetryHandles& handles, double t_ms,
                       const PcmSnapshot& snapshot) {
  for (size_t i = 0; i < snapshot.sockets.size(); ++i) {
    handles.socket_gbps[i]->Sample(t_ms, snapshot.sockets[i].dram_read_write_gbps);
    handles.socket_util[i]->Sample(t_ms, snapshot.sockets[i].dram_utilization);
  }
  for (size_t i = 0; i < snapshot.upi.size(); ++i) {
    handles.upi_gbps[i]->Sample(t_ms, snapshot.upi[i].achieved_gbps);
    handles.upi_util[i]->Sample(t_ms, snapshot.upi[i].utilization);
  }
  for (size_t i = 0; i < snapshot.cxl_cards.size(); ++i) {
    handles.cxl_gbps[i]->Sample(t_ms, snapshot.cxl_cards[i].achieved_gbps);
    handles.cxl_util[i]->Sample(t_ms, snapshot.cxl_cards[i].utilization);
  }
}

void SetPcmGauges(const PcmTelemetryHandles& handles, const PcmSnapshot& snapshot) {
  for (size_t i = 0; i < snapshot.sockets.size(); ++i) {
    handles.socket_dram_gauge[i]->Set(snapshot.sockets[i].dram_read_write_gbps);
  }
  for (size_t i = 0; i < snapshot.upi.size(); ++i) {
    handles.upi_gauge[i]->Set(snapshot.upi[i].achieved_gbps);
  }
  for (size_t i = 0; i < snapshot.cxl_cards.size(); ++i) {
    handles.cxl_gauge[i]->Set(snapshot.cxl_cards[i].achieved_gbps);
  }
  handles.max_upi_utilization->Set(snapshot.MaxUpiUtilization());
}

}  // namespace cxl::topology
