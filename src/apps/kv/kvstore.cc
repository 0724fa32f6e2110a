#include "src/apps/kv/kvstore.h"

#include <algorithm>
#include <bit>

#include "src/util/rng.h"
#include <cmath>

namespace cxl::apps::kv {

KvStoreConfig KvStoreConfig::Fig8Preset(uint64_t record_count) {
  KvStoreConfig cfg;
  cfg.record_count = record_count;
  // Read-only 100 GiB working set: the hot Zipfian head is partially
  // CPU-cache resident and there is no value-rewrite traffic, so ops touch
  // far fewer memory lines. Calibrated to the paper's measured 12.5%
  // CXL-vs-MMEM throughput gap and 9-27% latency penalty (§4.3.2).
  cfg.cpu_ns_per_op = 20'000.0;
  cfg.lines_per_read = 18.0;
  cfg.lines_per_update = 24.0;
  return cfg;
}

StatusOr<KvStore> KvStore::Create(os::PageAllocator& allocator, const os::NumaPolicy& policy,
                                  const KvStoreConfig& config, os::TieredMemory* tiering) {
  if (config.record_count == 0) {
    // No record to index: a key maps to no slot and no page.
    return Status::InvalidArgument("kv store: record_count must be above 0");
  }
  const uint64_t dataset = config.DatasetBytes();
  uint64_t resident = dataset;
  uint64_t cached_records = config.record_count;
  if (config.flash && config.maxmemory_bytes < dataset) {
    resident = config.maxmemory_bytes;
    cached_records = config.maxmemory_bytes / config.value_bytes;
  }
  auto region = os::MemoryRegion::Allocate(allocator, policy, resident);
  if (!region.ok()) {
    return region.status();
  }
  return KvStore(allocator, std::move(region).value(), config, cached_records, tiering);
}

KvStore::KvStore(os::PageAllocator& allocator, os::MemoryRegion region,
                 const KvStoreConfig& config, uint64_t cached_records, os::TieredMemory* tiering)
    : allocator_(&allocator), region_(std::move(region)), config_(config),
      cached_records_(cached_records), initial_records_(config.record_count),
      current_records_(config.record_count),
      recency_window_(cached_records / 16),
      slot_mod_(std::max<uint64_t>(cached_records, 1)),
      records_per_page_(std::max<uint64_t>(1, allocator.page_bytes() / config.value_bytes)),
      page_shift_((records_per_page_ & (records_per_page_ - 1)) == 0
                      ? std::countr_zero(records_per_page_)
                      : -1),
      slot_fastmod_(slot_mod_),
      page_fastmod_(std::max<uint64_t>(region_.page_count(), 1)),
      has_pages_(region_.page_count() > 0),
      tiering_(tiering) {
  if (config_.flash) {
    FlashTierConfig fc = config_.flash_config;
    fc.value_bytes = config_.value_bytes;
    flash_.emplace(fc);
  }
}

KvStore::OpCost KvStore::Access(const workload::YcsbOp& op) {
  OpCost cost;
  const bool is_write = op.type != workload::YcsbOp::Type::kRead;
  cost.is_write = is_write;
  cost.mem_lines = is_write ? config_.lines_per_update : config_.lines_per_read;

  // Rank-ordered slotting with band scatter: key k (rank-ordered hot->cold)
  // lives at slot k mod cached_records. Consecutive ranks share a page (the
  // clustering real allocators produce and the kernel's hot-page selection
  // exploits), but the *bands* are scattered across the region by a hash —
  // in a real system allocation order is temporal, not hotness order, so
  // page placement under an interleave policy is uncorrelated with rank.
  // A record is memory-resident when it is in the hot cached prefix (rank
  // hotness) or within the recency window (LRU share held by the most
  // recently loaded/inserted records — YCSB loads keys in order, so the
  // newest keys start memtable/block-cache resident; YCSB-D's latest
  // distribution reads exactly those).
  if (op.type == workload::YcsbOp::Type::kInsert && op.key >= current_records_) {
    current_records_ = op.key + 1;
  }
  const bool cached =
      op.key < cached_records_ || op.key + recency_window_ >= current_records_;
  // Zipfian keys are overwhelmingly below the cached prefix, so the modulo
  // is almost always the identity — branch around the reduction, and when
  // it is needed use the divide-free exact form. Records-per-page is a
  // power of two for every config in the repo, so the band divide is a
  // shift (the divide stays as the general-case fallback).
  const uint64_t slot = op.key < slot_mod_ ? op.key : slot_fastmod_(op.key);
  const uint64_t band = page_shift_ >= 0 ? slot >> page_shift_ : slot / records_per_page_;
  const size_t page_index = static_cast<size_t>(page_fastmod_(SplitMix64(band)));
  const os::PageId page = region_.PageAtIndex(page_index);
  cost.node = has_pages_ ? allocator_->NodeOf(page) : -1;
  cost.page = has_pages_ ? page : os::kInvalidPage;

  if (tiering_ != nullptr) {
    tiering_->RecordAccess(page, static_cast<uint64_t>(cost.mem_lines));
  }

  if (flash_.has_value()) {
    const FlashTier::OpResult fr = is_write ? flash_->Put(op.key) : flash_->Get(op.key, cached);
    cost.software_ns = fr.software_ns;
    cost.ssd_read = fr.ssd_read;
    cost.ssd_read_bytes = fr.ssd_read_bytes;
    cost.ssd_write_bytes = fr.ssd_write_bytes;
    if (!cached && !is_write) {
      // The value was fetched from SSD; the in-memory line traffic is only
      // the probe + staging, not a resident-value walk.
      cost.mem_lines = 0.3 * config_.lines_per_read;
    }
  }
  return cost;
}

}  // namespace cxl::apps::kv
