// Discrete-event kernel: a typed event heap.
//
// Entries are (time, sequence, payload) triples of plain data, popped
// earliest time first with FIFO tie-breaking. (time, seq) is a total order,
// so the pop sequence is fully determined by the push sequence. The caller
// owns the loop: it pops a payload, handles it, and pushes whatever follows.
// The request-level application simulations (KeyDB server event loops,
// Spark stage barriers) run on top of this kernel.
#ifndef CXL_EXPLORER_SRC_SIM_EVENT_HEAP_H_
#define CXL_EXPLORER_SRC_SIM_EVENT_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace cxl::sim {

// Simulated time. The unit is the caller's (the KV server runs in
// nanoseconds, the Spark DAG scheduler in seconds).
using SimTime = double;

template <typename Payload>
class EventHeap {
  // Plain data only: a pop is a fixed-size copy, never a call through a
  // type-erased move.
  static_assert(std::is_trivially_copyable_v<Payload>, "EventHeap payloads must be plain data");

 public:
  // Adds `payload` at absolute time `when` (must be >= Now()).
  void Push(SimTime when, const Payload& payload) {
    assert(when >= now_ && "cannot schedule into the past");
    heap_.push_back(Entry{when, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Removes the earliest entry, advances Now() to its time and returns its
  // payload. The heap must not be empty.
  Payload Pop() {
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    now_ = e.time;
    return e.payload;
  }

  SimTime Now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    Payload payload;
  };
  // Max-heap comparator that puts the earliest (time, seq) on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
};

}  // namespace cxl::sim

#endif  // CXL_EXPLORER_SRC_SIM_EVENT_HEAP_H_
