// /proc/vmstat-style time series for the tiering counters: every VmCounters
// field becomes series "vmstat.<counter>", sampled at daemon ticks. These
// are the promotion time series the paper reads off /proc/vmstat to explain
// the Spark thrashing regression (§4.2.2).
#ifndef CXL_EXPLORER_SRC_OS_VMSTAT_H_
#define CXL_EXPLORER_SRC_OS_VMSTAT_H_

#include "src/os/page_allocator.h"
#include "src/telemetry/timeline.h"

namespace cxl::os {

// Cached series handles for per-tick sampling: one name lookup per series at
// attach time instead of eight string lookups per daemon tick. Handles stay
// valid for the Timeline's lifetime (series are pointer-stable map nodes).
struct VmCounterSeries {
  telemetry::TimeSeries* pgalloc = nullptr;
  telemetry::TimeSeries* pgfree = nullptr;
  telemetry::TimeSeries* pgpromote_success = nullptr;
  telemetry::TimeSeries* pgpromote_candidate = nullptr;
  telemetry::TimeSeries* pgdemote = nullptr;
  telemetry::TimeSeries* numa_hint_faults = nullptr;
  telemetry::TimeSeries* migrate_failed = nullptr;
  telemetry::TimeSeries* promote_rate_limited = nullptr;
};
VmCounterSeries AttachVmCounterSeries(telemetry::Timeline& timeline);
// Appends every counter into its series at simulated time `t_ms`.
void SampleVmCounters(const VmCounterSeries& series, double t_ms, const VmCounters& counters);

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_VMSTAT_H_
