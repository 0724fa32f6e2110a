#include "src/mem/cxl_link.h"

namespace cxl::mem {

CxlLinkEfficiency ComputeLinkEfficiency(const CxlLinkConfig& config) {
  CxlLinkEfficiency eff;
  eff.flit_framing = config.flit_payload_bytes / config.flit_bytes;
  eff.slot_overhead = 1.0 - config.header_slot_fraction;
  eff.maintenance = 1.0 - config.maintenance_fraction;
  eff.controller = 1.0 - config.controller_bubble_fraction;
  eff.total = eff.flit_framing * eff.slot_overhead * eff.maintenance * eff.controller;
  eff.effective_gbps = eff.total * config.raw_gbps_per_direction;
  return eff;
}

CxlLinkConfig AsicLinkConfig() {
  CxlLinkConfig cfg;
  // Streaming CXL.mem reads pack mostly all-data flits with roughly one
  // header slot per five (request/NDR bookkeeping): ~19.4% slot overhead.
  // With 64/68 framing and ~3% link maintenance this derives the A1000's
  // measured 73.6% of raw PCIe bandwidth.
  cfg.header_slot_fraction = 0.194;
  cfg.maintenance_fraction = 0.03;
  cfg.controller_bubble_fraction = 0.0;  // Full-rate hardened pipeline.
  return cfg;
}

CxlLinkConfig FpgaLinkConfig() {
  CxlLinkConfig cfg = AsicLinkConfig();
  // The soft controller clocks well below line rate: the link idles
  // between flits while the fabric catches up (~18.5% dead time), dropping
  // total efficiency to the ~60% Intel reported for its prototype.
  cfg.controller_bubble_fraction = 0.185;
  return cfg;
}

CxlLinkConfig DegradeLink(const CxlLinkConfig& base, int active_lanes, double extra_maintenance) {
  CxlLinkConfig degraded = base;
  const int lanes = active_lanes < 1 ? 1 : (active_lanes > 16 ? 16 : active_lanes);
  degraded.raw_gbps_per_direction = base.raw_gbps_per_direction * lanes / 16.0;
  double maintenance = base.maintenance_fraction + (extra_maintenance > 0.0 ? extra_maintenance : 0.0);
  if (maintenance > 0.95) {
    maintenance = 0.95;
  }
  degraded.maintenance_fraction = maintenance;
  return degraded;
}

}  // namespace cxl::mem
