// Intel PCM-style counter facade.
//
// The paper instruments its testbed with the Intel Performance Counter
// Monitor: socket DRAM bandwidth for Fig. 10(b)(c), and UPI utilization to
// diagnose the remote-CXL bottleneck ("the UPI utilization is consistently
// below 30%", §3.2 — proving the Remote Snoop Filter, not the interconnect,
// caps remote CXL). PcmSnapshot renders a TrafficModel solution the way an
// operator would read `pcm` / `pcm-memory` output, so experiments can make
// the same diagnosis.
#ifndef CXL_EXPLORER_SRC_TOPOLOGY_PCM_H_
#define CXL_EXPLORER_SRC_TOPOLOGY_PCM_H_

#include <vector>

#include "src/telemetry/metrics.h"
#include "src/topology/platform.h"

namespace cxl::topology {

struct PcmSocketCounters {
  int socket = 0;
  double dram_read_write_gbps = 0.0;  // Aggregate DRAM traffic on the socket.
  double dram_utilization = 0.0;      // Against the socket's channel capacity.
};

struct PcmSnapshot {
  std::vector<PcmSocketCounters> sockets;
  // Per-destination-socket UPI traffic and utilization.
  std::vector<TrafficModel::NodeStats> upi;
  // Per-CXL-card traffic (as a CXL.mem "device counter" would report).
  std::vector<TrafficModel::NodeStats> cxl_cards;

  // Highest UPI utilization across directions (the §3.2 diagnostic).
  double MaxUpiUtilization() const;
};

// Builds a snapshot from a solved traffic model.
PcmSnapshot TakePcmSnapshot(const Platform& platform, const TrafficModel::Solution& solution);

// Cached handles for per-epoch pcm sampling: the series and gauge names are
// built (and looked up) once per run instead of once per epoch. Handles stay
// valid for the registry's lifetime (series and gauges are pointer-stable).
// The snapshot shape (socket/UPI/CXL-card counts) is fixed by the platform,
// so one attach covers every later epoch.
struct PcmTelemetryHandles {
  bool attached = false;
  // Parallel to PcmSnapshot::sockets / upi / cxl_cards.
  std::vector<telemetry::TimeSeries*> socket_gbps;
  std::vector<telemetry::TimeSeries*> socket_util;
  std::vector<telemetry::TimeSeries*> upi_gbps;
  std::vector<telemetry::TimeSeries*> upi_util;
  std::vector<telemetry::TimeSeries*> cxl_gbps;
  std::vector<telemetry::TimeSeries*> cxl_util;
  // End-state gauges ("pcm.skt<i>.dram_gbps", "pcm.upi<i>.gbps",
  // "pcm.cxl<i>.gbps", "pcm.max_upi_utilization").
  std::vector<telemetry::Gauge*> socket_dram_gauge;
  std::vector<telemetry::Gauge*> upi_gauge;
  std::vector<telemetry::Gauge*> cxl_gauge;
  telemetry::Gauge* max_upi_utilization = nullptr;
};
PcmTelemetryHandles AttachPcmTelemetry(telemetry::MetricRegistry& registry,
                                       const PcmSnapshot& shape);
// Appends the snapshot into the handles' timeline series at simulated time
// `t_ms`, one series per path: pcm.skt<i>.dram_gbps / .dram_util,
// pcm.upi<i>.gbps / .util, pcm.cxl<i>.gbps / .util. Sampled every
// contention epoch, these are the bandwidth-over-time plots behind
// Fig. 10(b)(c) and the §3.2 UPI diagnosis.
void SamplePcmSnapshot(const PcmTelemetryHandles& handles, double t_ms,
                       const PcmSnapshot& snapshot);
// Sets the end-state gauges ("latest epoch wins" semantics).
void SetPcmGauges(const PcmTelemetryHandles& handles, const PcmSnapshot& snapshot);

}  // namespace cxl::topology

#endif  // CXL_EXPLORER_SRC_TOPOLOGY_PCM_H_
