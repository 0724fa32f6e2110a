#include "src/os/page_allocator.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cxl::os {

PageAllocator::PageAllocator(const topology::Platform& platform, uint64_t page_bytes)
    : platform_(platform), page_bytes_(page_bytes) {
  assert(page_bytes > 0);
  node_used_.resize(platform.nodes().size(), 0);
  node_capacity_.resize(platform.nodes().size(), 0);
  node_is_dram_.resize(platform.nodes().size(), 0);
  for (const auto& n : platform.nodes()) {
    assert(n.id >= 0 && n.id <= std::numeric_limits<int8_t>::max() && "node id overflows a byte");
    node_capacity_[static_cast<size_t>(n.id)] = n.capacity_bytes / page_bytes;
    node_is_dram_[static_cast<size_t>(n.id)] = n.kind == topology::NodeKind::kDram ? 1 : 0;
  }
}

uint64_t PageAllocator::FreePages(topology::NodeId node) const {
  return node_capacity_[static_cast<size_t>(node)] - node_used_[static_cast<size_t>(node)];
}

uint64_t PageAllocator::TotalPages(topology::NodeId node) const {
  return node_capacity_[static_cast<size_t>(node)];
}

uint64_t PageAllocator::UsedPages(topology::NodeId node) const {
  return node_used_[static_cast<size_t>(node)];
}

uint64_t PageAllocator::DramResidentCount() const {
  uint64_t total = 0;
  for (size_t n = 0; n < node_used_.size(); ++n) {
    if (node_is_dram_[n] != 0) {
      total += node_used_[n];
    }
  }
  return total;
}

uint64_t PageAllocator::CxlResidentCount() const {
  uint64_t total = 0;
  for (size_t n = 0; n < node_used_.size(); ++n) {
    if (node_is_dram_[n] == 0) {
      total += node_used_[n];
    }
  }
  return total;
}

double PageAllocator::DramFreeFraction() const {
  uint64_t free = 0;
  uint64_t total = 0;
  for (const auto& n : platform_.nodes()) {
    if (n.kind == topology::NodeKind::kDram) {
      free += FreePages(n.id);
      total += TotalPages(n.id);
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(free) / static_cast<double>(total);
}

topology::NodeId PageAllocator::FallbackNode() const {
  // Prefer the DRAM node with the most free pages; fall back to CXL.
  topology::NodeId best = -1;
  uint64_t best_free = 0;
  for (const auto& n : platform_.nodes()) {
    if (n.kind != topology::NodeKind::kDram) {
      continue;
    }
    const uint64_t f = FreePages(n.id);
    if (f > best_free) {
      best_free = f;
      best = n.id;
    }
  }
  if (best >= 0) {
    return best;
  }
  for (const auto& n : platform_.nodes()) {
    if (n.kind == topology::NodeKind::kCxl && FreePages(n.id) > 0) {
      return n.id;
    }
  }
  return -1;
}

StatusOr<PageRuns> PageAllocator::Allocate(const NumaPolicy& policy, uint64_t count) {
  // Placement page by page succeeds exactly while a node it may use has
  // room: for kBind the bound nodes, otherwise every node (FallbackNode
  // reaches DRAM and CXL alike). So the request fails here, before any
  // column grows, or not at all.
  const bool bind = policy.mode() == PolicyMode::kBind;
  uint64_t room = 0;
  const std::vector<topology::NodeId>& bound = policy.nodes();
  for (const auto& n : platform_.nodes()) {
    if (!bind || std::find(bound.begin(), bound.end(), n.id) != bound.end()) {
      room += FreePages(n.id);
    }
  }
  if (count > room) {
    return Status::ResourceExhausted(bind ? "bind policy: bound nodes are full"
                                          : "machine out of memory");
  }
  // The most recently freed ids first, then fresh slots as one run; the
  // columns grow once for the fresh slots instead of page by page.
  const uint64_t recycled = std::min(count, free_.size());
  PageRuns out = free_.TakeBack(recycled);
  const uint64_t base = node_.size();
  if (count > recycled) {
    const uint64_t grown = base + (count - recycled);
    node_.resize(grown, -1);
    ResizeBits();
    out.Append(base, count - recycled, /*descending=*/false);
  }
  if (heat_tracked_) {
    // Fresh slots and recycled ids alike start at heat 0.
    heat_.resize(node_.size(), 0.0f);
    out.ForEachSpan(0, recycled, [&](PageId first, uint64_t n) {
      std::fill_n(heat_.begin() + static_cast<std::ptrdiff_t>(first), n, 0.0f);
    });
  }
  // Per-call allocation index drives the policy's round-robin; continuing a
  // global index would skew small allocations, and the kernel's interleave
  // counter is per-task anyway. The policy sequence is one precomputed
  // period walked with a wrapping cursor — NodeForIndex(i) without the
  // per-page call and divides.
  const std::vector<topology::NodeId> pattern = policy.PeriodPattern();
  const size_t period = pattern.size();
  size_t pattern_i = 0;
  // Residency masks of a whole word whose first id the cursor places at
  // phase p, built at the first whole word a batch covers.
  std::vector<uint64_t> phase_dram;
  std::vector<uint64_t> phase_cxl;
  // Sets the residency bits of the `batch` ids of `run` from position `j`,
  // which the cursor placed from `phase` on: whole words of an ascending
  // run from the phase masks, partial words and descending runs page by
  // page.
  const auto mark_batch = [&](const PageRuns::Run& run, uint64_t j, uint64_t batch,
                              size_t phase) {
    uint64_t k = 0;
    const auto mark_one = [&] {
      MarkResident(run.at(j + k), pattern[phase]);
      if (++phase == period) {
        phase = 0;
      }
      ++k;
    };
    if (!run.descending) {
      const PageId first = run.at(j);
      while (k < batch && (first + k) % 64 != 0) {
        mark_one();
      }
      if (batch - k >= 64 && phase_dram.empty()) {
        phase_dram.assign(period, 0);
        phase_cxl.assign(period, 0);
        for (size_t p = 0; p < period; ++p) {
          for (uint64_t b = 0; b < 64; ++b) {
            const uint64_t bit = uint64_t{1} << b;
            (IsDramNode(pattern[(p + b) % period]) ? phase_dram : phase_cxl)[p] |= bit;
          }
        }
      }
      const size_t step = 64 % period;
      for (; batch - k >= 64; k += 64) {
        dram_bits_[(first + k) / 64] |= phase_dram[phase];
        cxl_bits_[(first + k) / 64] |= phase_cxl[phase];
        phase += step;
        if (phase >= period) {
          phase -= period;
        }
      }
    }
    while (k < batch) {
      mark_one();
    }
  };
  for (const PageRuns::Run& run : out.runs()) {
    for (uint64_t j = 0; j < run.count;) {
      // While every node of the pattern has room for the whole batch, no
      // page of it can need a fallback: place the batch unchecked and add
      // its per-node counts in one pass over the pattern (cursor position
      // start + k comes up batch / period times, once more if k is within
      // the remainder).
      uint64_t batch = run.count - j;
      for (const topology::NodeId n : pattern) {
        batch = std::min(batch, FreePages(n));
      }
      if (batch > 0) {
        for (size_t k = 0; k < period; ++k) {
          node_used_[static_cast<size_t>(pattern[(pattern_i + k) % period])] +=
              batch / period + (k < batch % period ? 1 : 0);
        }
        mark_batch(run, j, batch, pattern_i);
        for (const uint64_t end = j + batch; j < end; ++j) {
          node_[run.at(j)] = static_cast<int8_t>(pattern[pattern_i]);
          if (++pattern_i == period) {
            pattern_i = 0;
          }
        }
        continue;
      }
      // A node of the pattern is full: this page takes the fallback rules.
      topology::NodeId target = pattern[pattern_i];
      if (++pattern_i == period) {
        pattern_i = 0;
      }
      if (FreePages(target) == 0) {
        // The first bound node with room, or the fallback; the check above
        // guarantees one.
        target = bind ? *std::find_if(bound.begin(), bound.end(),
                                      [&](topology::NodeId n) { return FreePages(n) > 0; })
                      : FallbackNode();
        assert(target >= 0);
      }
      const PageId id = run.at(j);
      node_[id] = static_cast<int8_t>(target);
      MarkResident(id, target);
      ++node_used_[static_cast<size_t>(target)];
      ++j;
    }
  }
  allocated_ += count;
  counters_.pgalloc += count;
  return out;
}

void PageAllocator::Free(const PageRuns& pages) {
  // Tallied in four lanes so consecutive pages on one node do not queue on
  // a single counter's read-modify-write.
  const size_t nodes = node_used_.size();
  std::vector<uint64_t> freed(4 * nodes, 0);
  for (const PageRuns::Run& run : pages.runs()) {
    for (uint64_t j = 0; j < run.count; ++j) {
      const PageId id = run.at(j);
      assert(node_[id] >= 0 && "double free");
      ++freed[(j & 3) * nodes + static_cast<size_t>(node_[id])];
      node_[id] = -1;
    }
  }
  for (size_t i = 0; i < freed.size(); ++i) {
    node_used_[i % nodes] -= freed[i];
  }
  // Each run is a range of ids: clear its residency bits word by word.
  for (const PageRuns::Run& run : pages.runs()) {
    PageId lo = run.descending ? run.first - (run.count - 1) : run.first;
    const PageId hi = lo + run.count;
    while (lo < hi) {
      const size_t w = lo / 64;
      const uint64_t span = std::min<PageId>(hi, (w + 1) * 64) - lo;
      const uint64_t keep = span == 64 ? 0 : ~(((uint64_t{1} << span) - 1) << (lo % 64));
      dram_bits_[w] &= keep;
      cxl_bits_[w] &= keep;
      lo += span;
    }
  }
  free_.Append(pages);
  allocated_ -= pages.size();
  counters_.pgfree += pages.size();
}

Status PageAllocator::MovePage(PageId id, topology::NodeId target) {
  const topology::NodeId from = node_[id];
  assert(from >= 0 && "moving a free page");
  if (from == target) {
    return Status::Ok();
  }
  if (FreePages(target) == 0) {
    ++counters_.migrate_failed;
    return Status::ResourceExhausted("target node full");
  }
  --node_used_[static_cast<size_t>(from)];
  ++node_used_[static_cast<size_t>(target)];
  node_[id] = static_cast<int8_t>(target);
  if (IsDramNode(from) != IsDramNode(target)) {
    const uint64_t bit = uint64_t{1} << (id % 64);
    dram_bits_[id / 64] ^= bit;
    cxl_bits_[id / 64] ^= bit;
  }
  return Status::Ok();
}

void PageAllocator::ResizeBits() {
  const size_t words = (node_.size() + 63) / 64;
  dram_bits_.resize(words, 0);
  cxl_bits_.resize(words, 0);
}

}  // namespace cxl::os
