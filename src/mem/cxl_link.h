// CXL.mem link-layer accounting: where the "73.6% of PCIe bandwidth"
// efficiency (§3.4) actually comes from.
//
// CXL 1.1 runs over the PCIe 5.0 physical layer but replaces the
// transaction layer with fixed 68-byte flits (64 B payload slots + 2 B CRC
// + 2 B protocol ID). A 64 B cache-line read costs a request flit upstream
// and a data flit downstream; slot headers, credits/ACKs, and link
// maintenance consume further slots. This module models that accounting so
// the ASIC's achievable bandwidth emerges from protocol mechanics — and the
// FPGA's lower efficiency from its extra per-flit processing bubbles.
#ifndef CXL_EXPLORER_SRC_MEM_CXL_LINK_H_
#define CXL_EXPLORER_SRC_MEM_CXL_LINK_H_

#include "src/mem/access.h"

namespace cxl::mem {

struct CxlLinkConfig {
  // PCIe Gen5 x16: 32 GT/s x 16 lanes = 64 GB/s raw per direction, already
  // net of 128b/130b encoding at this granularity.
  double raw_gbps_per_direction = 64.0;
  // CXL 68-byte flit: 64 B of slots + 2 B CRC + 2 B protocol ID.
  double flit_bytes = 68.0;
  double flit_payload_bytes = 64.0;
  // Of the four 16 B slots in a flit, the header slot is consumed by
  // request/response metadata on average this fraction of the time (H-slot
  // vs all-data flits; CXL.mem achieves ~3 data slots + 1 header slot
  // steady-state on streaming reads).
  double header_slot_fraction = 0.25;
  // Link-layer maintenance (credit returns, ACK/NAK, retry buffer refresh)
  // as a fraction of flits.
  double maintenance_fraction = 0.03;
  // Controller-side dead time between flits (implementation-dependent:
  // ~0 for a full-rate ASIC pipeline, substantial for a soft FPGA
  // controller clocked far below line rate).
  double controller_bubble_fraction = 0.0;
};

// Link-efficiency breakdown for a read-dominated CXL.mem stream.
struct CxlLinkEfficiency {
  double flit_framing = 0.0;       // payload/flit (64/68).
  double slot_overhead = 0.0;      // 1 - header slot share.
  double maintenance = 0.0;        // 1 - maintenance share.
  double controller = 0.0;         // 1 - controller bubbles.
  double total = 0.0;              // Product of the above.
  double effective_gbps = 0.0;     // total x raw bandwidth.
};

// Computes the efficiency stack for one direction of the link.
CxlLinkEfficiency ComputeLinkEfficiency(const CxlLinkConfig& config);

// Canned configurations whose derived efficiencies reproduce §3.4:
// the A1000-class ASIC lands at ~73.6% and the FPGA prototype at ~60%.
CxlLinkConfig AsicLinkConfig();
CxlLinkConfig FpgaLinkConfig();

// A degraded copy of `base`: the physical link re-trained down to
// `active_lanes` (of 16) and `extra_maintenance` added to the flit
// maintenance fraction (CRC retry storms replay flits from the retry
// buffer, which shows up exactly as extra maintenance slots). Lanes clamp
// to [1, 16]; the combined maintenance fraction clamps below 0.95 so the
// link never models negative throughput.
CxlLinkConfig DegradeLink(const CxlLinkConfig& base, int active_lanes, double extra_maintenance);

}  // namespace cxl::mem

#endif  // CXL_EXPLORER_SRC_MEM_CXL_LINK_H_
