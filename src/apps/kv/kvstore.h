// KeyDB-like in-memory key-value store over the simulated memory system.
//
// Records live at fixed slots in a MemoryRegion (rank-ordered: low key ids —
// the Zipfian-hot ones — occupy the low pages, modelling the temporal
// clustering real allocators produce). Each YCSB operation resolves to:
//   - the page (and hence NUMA node) holding the record,
//   - the number of 64 B memory lines the op touches (hash probe + value
//     copy; updates touch more than reads),
//   - optional FlashTier costs when the store runs in KeyDB-FLASH mode with
//     a maxmemory cap (MMEM-SSD-0.2 / 0.4 in Table 1).
//
// The store reports *costs*; KvServerSim turns them into time using the
// platform's contention model.
#ifndef CXL_EXPLORER_SRC_APPS_KV_KVSTORE_H_
#define CXL_EXPLORER_SRC_APPS_KV_KVSTORE_H_

#include <cstdint>
#include <optional>

#include "src/apps/kv/flash_tier.h"
#include "src/os/numa_policy.h"
#include "src/os/page_allocator.h"
#include "src/os/region.h"
#include "src/os/tiering.h"
#include "src/util/fastmod.h"
#include "src/util/status.h"
#include "src/workload/ycsb.h"

namespace cxl::apps::kv {

struct KvStoreConfig {
  uint64_t record_count = 1'000'000;
  // 1 KiB records (the YCSB default the paper uses).
  uint64_t value_bytes = 1024;
  // CPU time per op outside memory stalls (command parse, event loop,
  // hashing). Calibrated so a 7-thread KeyDB does a few hundred kops/s.
  double cpu_ns_per_op = 15'000.0;
  // 64 B memory lines touched per op: hash-table probe chain + value copy +
  // allocator/TLB traffic. Updates rewrite the value, touching more lines.
  // Defaults fit the paper's 512 GiB capacity experiments (Fig. 5); the
  // 100 GiB VM experiment (Fig. 8) uses a lighter preset — see Fig8Preset().
  double lines_per_read = 120.0;
  double lines_per_update = 150.0;
  // KeyDB-FLASH mode: all records also persisted to SSD; only the hottest
  // `maxmemory_bytes` worth of records are cached in memory.
  bool flash = false;
  uint64_t maxmemory_bytes = UINT64_MAX;
  FlashTierConfig flash_config;

  uint64_t DatasetBytes() const { return record_count * value_bytes; }

  // Preset matching §4.3 / Fig. 8 (100 GiB YCSB-C): read-mostly, smaller
  // working set, so per-op memory stall time is a smaller share — the paper
  // measures only a 12.5% throughput gap for CXL-only placement.
  static KvStoreConfig Fig8Preset(uint64_t record_count);
};

class KvStore {
 public:
  // Allocates the in-memory region under `policy`. With flash enabled, only
  // min(maxmemory, dataset) bytes are resident. `tiering` (optional)
  // receives access heat so a promotion daemon can rearrange pages. A
  // config with no record is an InvalidArgument, before any allocation.
  static StatusOr<KvStore> Create(os::PageAllocator& allocator, const os::NumaPolicy& policy,
                                  const KvStoreConfig& config,
                                  os::TieredMemory* tiering = nullptr);

  KvStore(KvStore&&) = default;

  // Cost descriptor of one operation.
  struct OpCost {
    topology::NodeId node = -1;     // Node of the touched record page (-1 if none).
    os::PageId page = os::kInvalidPage;  // Touched record page (for quarantine).
    double mem_lines = 0.0;         // 64 B lines touched in memory.
    double software_ns = 0.0;       // Flash software path, if taken.
    bool ssd_read = false;          // Foreground SSD read (cache miss).
    uint64_t ssd_read_bytes = 0;
    uint64_t ssd_write_bytes = 0;   // Background WAL/flush/compaction.
    bool is_write = false;
  };
  OpCost Access(const workload::YcsbOp& op);

  // Fraction of in-memory pages on DRAM (for telemetry).
  double DramShare() const { return region_.DramShare(); }
  const os::MemoryRegion& region() const { return region_; }
  const KvStoreConfig& config() const { return config_; }
  // Records resident in memory (all of them unless flash caps them).
  uint64_t cached_records() const { return cached_records_; }
  const FlashTier* flash() const { return flash_ ? &*flash_ : nullptr; }

  void Free() { region_.Free(); }

 private:
  KvStore(os::PageAllocator& allocator, os::MemoryRegion region, const KvStoreConfig& config,
          uint64_t cached_records, os::TieredMemory* tiering);

  os::PageAllocator* allocator_;
  os::MemoryRegion region_;
  KvStoreConfig config_;
  uint64_t cached_records_;   // Hottest records resident in memory.
  uint64_t initial_records_;  // Record count at creation (inserts append past it).
  uint64_t current_records_;  // Highest key seen + 1 (grows with inserts).
  // Access() invariants, hoisted out of the per-op path (region size,
  // page geometry and the cached prefix are fixed at construction).
  uint64_t recency_window_;   // cached_records / 16.
  uint64_t slot_mod_;         // max(cached_records, 1).
  uint64_t records_per_page_; // max(1, page_bytes / value_bytes).
  int page_shift_;            // log2(records_per_page_), or -1 if not a power of two.
  FastMod64 slot_fastmod_;    // x % slot_mod_ without a hardware divide.
  FastMod64 page_fastmod_;    // x % max(region page count, 1), likewise.
  bool has_pages_;            // region has at least one page.
  os::TieredMemory* tiering_;
  std::optional<FlashTier> flash_;
};

}  // namespace cxl::apps::kv

#endif  // CXL_EXPLORER_SRC_APPS_KV_KVSTORE_H_
