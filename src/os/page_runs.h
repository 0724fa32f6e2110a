// PageRuns: a sequence of page ids stored as runs of consecutive ids.
//
// Allocations hand out ids in runs: fresh slots are one ascending run, and
// ids recycled from a freed region come back last-freed-first, i.e. as the
// freed runs reversed. Storing the runs instead of one entry per page makes
// allocating and freeing a 2M-page region O(runs) in memory, while the
// sequence still iterates (and indexes) as exactly the ids it holds, in
// order. A run is ascending (first, first + 1, ...) or descending (first,
// first - 1, ...); a one-id run is stored ascending.
#ifndef CXL_EXPLORER_SRC_OS_PAGE_RUNS_H_
#define CXL_EXPLORER_SRC_OS_PAGE_RUNS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "src/os/page.h"

namespace cxl::os {

class PageRuns {
 public:
  struct Run {
    PageId first = 0;
    uint64_t count = 0;
    uint64_t start = 0;  // Position of `first` in the sequence.
    bool descending = false;

    PageId at(uint64_t i) const { return descending ? first - i : first + i; }
  };

  // Forward iterator over the ids, in sequence order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PageId;
    using difference_type = std::ptrdiff_t;
    using pointer = const PageId*;
    using reference = PageId;

    const_iterator() = default;
    const_iterator(const Run* run, uint64_t pos) : run_(run), pos_(pos) {}

    PageId operator*() const { return run_->at(pos_); }
    const_iterator& operator++() {
      if (++pos_ == run_->count) {
        ++run_;
        pos_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return run_ == other.run_ && pos_ == other.pos_;
    }
    bool operator!=(const const_iterator& other) const { return !(*this == other); }

   private:
    const Run* run_ = nullptr;
    uint64_t pos_ = 0;
  };

  PageRuns() = default;
  // The ids of [first, last), in order.
  template <typename It>
  PageRuns(It first, It last) {
    for (; first != last; ++first) {
      push_back(*first);
    }
  }

  // Appends the `count` ids first, first ± 1, ... (descending: minus),
  // extending the last run when they continue it.
  void Append(PageId first, uint64_t count, bool descending);
  void Append(const PageRuns& other);
  void push_back(PageId id) { Append(id, 1, false); }

  // Removes the last `count` ids (count <= size()) and returns them last
  // first, as a stack pop would: the tail of a run comes back reversed.
  PageRuns TakeBack(uint64_t count);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::vector<Run>& runs() const { return runs_; }

  // Id at position `i` in [0, size()): an add for one run (every region of a
  // fresh allocator), a binary search over the runs otherwise.
  PageId operator[](uint64_t i) const {
    return runs_.size() == 1 ? runs_.front().at(i) : Lookup(i);
  }

  // Calls fn(lowest_id, count) once for each maximal piece of a run that
  // lies inside positions [begin, end) (end <= size()), in sequence order.
  // A piece of a descending run is reported by its ascending id span, so
  // fn sees sets of consecutive ids rather than sequences.
  template <typename Fn>
  void ForEachSpan(uint64_t begin, uint64_t end, Fn&& fn) const {
    if (begin >= end) {
      return;
    }
    for (size_t r = RunIndex(begin); begin < end; ++r) {
      const Run& run = runs_[r];
      const uint64_t from = begin - run.start;
      const uint64_t to = std::min(end - run.start, run.count);
      fn(run.descending ? run.at(to - 1) : run.at(from), to - from);
      begin = run.start + to;
    }
  }

  const_iterator begin() const { return const_iterator(runs_.data(), 0); }
  const_iterator end() const { return const_iterator(runs_.data() + runs_.size(), 0); }

  void clear() {
    runs_.clear();
    size_ = 0;
  }

 private:
  PageId Lookup(uint64_t i) const;
  // Index in runs_ of the run holding position `i` in [0, size()).
  size_t RunIndex(uint64_t i) const;

  std::vector<Run> runs_;
  uint64_t size_ = 0;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_PAGE_RUNS_H_
