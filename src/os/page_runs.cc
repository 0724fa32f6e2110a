#include "src/os/page_runs.h"

#include <algorithm>
#include <cassert>

namespace cxl::os {

void PageRuns::Append(PageId first, uint64_t count, bool descending) {
  if (count == 0) {
    return;
  }
  descending = descending && count > 1;
  if (!runs_.empty()) {
    // A one-id run has no direction yet: either neighbour can extend it.
    Run& last = runs_.back();
    const bool up = (last.count == 1 || !last.descending) && (count == 1 || !descending) &&
                    first == last.first + last.count;
    const bool down = (last.count == 1 || last.descending) && (count == 1 || descending) &&
                      last.first >= last.count && first == last.first - last.count;
    if (up || down) {
      last.descending = down;
      last.count += count;
      size_ += count;
      return;
    }
  }
  runs_.push_back(Run{first, count, size_, descending});
  size_ += count;
}

void PageRuns::Append(const PageRuns& other) {
  for (const Run& run : other.runs_) {
    Append(run.first, run.count, run.descending);
  }
}

PageRuns PageRuns::TakeBack(uint64_t count) {
  assert(count <= size_);
  PageRuns out;
  while (count > 0) {
    Run& last = runs_.back();
    const uint64_t take = std::min(count, last.count);
    // The run's last `take` ids, last first: the opposite direction.
    out.Append(last.at(last.count - 1), take, !last.descending);
    last.count -= take;
    size_ -= take;
    count -= take;
    if (last.count == 0) {
      runs_.pop_back();
    } else if (last.count == 1) {
      last.descending = false;
    }
  }
  return out;
}

PageId PageRuns::Lookup(uint64_t i) const {
  const Run& run = runs_[RunIndex(i)];
  return run.at(i - run.start);
}

size_t PageRuns::RunIndex(uint64_t i) const {
  assert(i < size_);
  const auto it = std::upper_bound(runs_.begin(), runs_.end(), i,
                                   [](uint64_t pos, const Run& run) { return pos < run.start; });
  return static_cast<size_t>(it - runs_.begin()) - 1;
}

}  // namespace cxl::os
