#include "src/os/vmstat.h"

namespace cxl::os {

VmCounterSeries AttachVmCounterSeries(telemetry::Timeline& timeline) {
  VmCounterSeries s;
  s.pgalloc = &timeline.Series("vmstat.pgalloc");
  s.pgfree = &timeline.Series("vmstat.pgfree");
  s.pgpromote_success = &timeline.Series("vmstat.pgpromote_success");
  s.pgpromote_candidate = &timeline.Series("vmstat.pgpromote_candidate");
  s.pgdemote = &timeline.Series("vmstat.pgdemote");
  s.numa_hint_faults = &timeline.Series("vmstat.numa_hint_faults");
  s.migrate_failed = &timeline.Series("vmstat.migrate_failed");
  s.promote_rate_limited = &timeline.Series("vmstat.promote_rate_limited");
  return s;
}

void SampleVmCounters(const VmCounterSeries& series, double t_ms, const VmCounters& counters) {
  series.pgalloc->Sample(t_ms, static_cast<double>(counters.pgalloc));
  series.pgfree->Sample(t_ms, static_cast<double>(counters.pgfree));
  series.pgpromote_success->Sample(t_ms, static_cast<double>(counters.pgpromote_success));
  series.pgpromote_candidate->Sample(t_ms, static_cast<double>(counters.pgpromote_candidate));
  series.pgdemote->Sample(t_ms, static_cast<double>(counters.pgdemote));
  series.numa_hint_faults->Sample(t_ms, static_cast<double>(counters.numa_hint_faults));
  series.migrate_failed->Sample(t_ms, static_cast<double>(counters.migrate_failed));
  series.promote_rate_limited->Sample(t_ms, static_cast<double>(counters.promote_rate_limited));
}

}  // namespace cxl::os
