// Access-mix and access-path vocabulary shared by all memory models.
#ifndef CXL_EXPLORER_SRC_MEM_ACCESS_H_
#define CXL_EXPLORER_SRC_MEM_ACCESS_H_

#include <cassert>
#include <string>

namespace cxl::mem {

// Read/write composition of a memory access stream, expressed as the
// fraction of accesses that are reads (1.0 = read-only, 0.0 = write-only).
// The paper sweeps R:W ratios {1:0, 3:1, 2:1, 1:1, 1:2, 0:1} (Fig. 3/4).
struct AccessMix {
  double read_fraction = 1.0;
  // Non-temporal (streaming) stores bypass the cache hierarchy and complete
  // asynchronously; the paper attributes the anomalously low 71.77 ns
  // write-only idle latency on the remote path to them (§3.2).
  bool non_temporal_writes = true;

  double write_fraction() const { return 1.0 - read_fraction; }

  static AccessMix ReadOnly() { return AccessMix{1.0, true}; }
  static AccessMix WriteOnly() { return AccessMix{0.0, true}; }
  // R:W = r:w, e.g. Ratio(2, 1) is the 2:1 mix where CXL bandwidth peaks.
  static AccessMix Ratio(int r, int w) {
    assert(r >= 0 && w >= 0 && r + w > 0);
    return AccessMix{static_cast<double>(r) / static_cast<double>(r + w), true};
  }
};

// Formats a mix as "R:W=2:1"-style label (matches the figure legends).
std::string MixLabel(const AccessMix& mix);

// Sequential vs random access pattern. §3.3 finds no significant difference
// between them for these devices (Fig. 4(g)(h)); the model applies a small
// randomness penalty on DRAM row-buffer locality to let benches demonstrate
// exactly that (the penalty is ~2%, i.e. "no significant disparity").
enum class AccessPattern {
  kSequential,
  kRandom,
};

// The five memory "distances" the paper characterizes.
enum class MemoryPath {
  kLocalDram,   // MMEM:   same-socket DDR5 (2 channels per SNC domain).
  kRemoteDram,  // MMEM-r: DDR5 behind one UPI hop.
  kLocalCxl,    // CXL:    same-socket ASIC CXL expander over PCIe Gen5 x16.
  kRemoteCxl,   // CXL-r:  CXL expander behind one UPI hop (RSF-limited).
  kSsd,         // NVMe SSD (spill target for KeyDB-Flash / Spark).
};

// Short label used in tables: "MMEM", "MMEM-r", "CXL", "CXL-r", "SSD".
std::string PathLabel(MemoryPath path);

// CXL memory-expander controller implementation. The paper measures the
// AsteraLabs A1000 ASIC and contrasts it with Intel's FPGA prototype (§3.4):
// the ASIC reaches 73.6% PCIe bandwidth efficiency vs ~60% for the FPGA.
enum class CxlController {
  kAsic,
  kFpga,
};

}  // namespace cxl::mem

#endif  // CXL_EXPLORER_SRC_MEM_ACCESS_H_
