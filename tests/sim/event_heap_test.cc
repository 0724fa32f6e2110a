// sim::EventHeap is the simulation kernel's event queue: (time, seq) order,
// earliest first, FIFO on equal times.
#include "src/sim/event_heap.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/rng.h"

namespace cxl::sim {
namespace {

// Pops every entry, returning the payloads in pop order.
std::vector<int> Drain(EventHeap<int>& q) {
  std::vector<int> order;
  while (!q.empty()) {
    order.push_back(q.Pop());
  }
  return order;
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventHeap<int> q;
  q.Push(30.0, 3);
  q.Push(10.0, 1);
  q.Push(20.0, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(Drain(q), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30.0);
}

TEST(EventQueueTest, FifoTieBreaking) {
  EventHeap<int> q;
  for (int i = 1; i <= 5; ++i) {
    q.Push(5.0, i);
  }
  EXPECT_EQ(Drain(q), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, PushesAtNowBetweenPopsQueueBehindEarlierTies) {
  // The KV server and the DAG scheduler push new events while handling a
  // popped one; entries pushed at the current time go behind every earlier
  // entry at that time.
  EventHeap<int> q;
  q.Push(5.0, 1);
  q.Push(5.0, 2);
  q.Push(7.0, 9);
  EXPECT_EQ(q.Pop(), 1);
  q.Push(q.Now(), 3);
  q.Push(5.0, 4);
  EXPECT_EQ(q.Pop(), 2);
  q.Push(q.Now(), 5);
  EXPECT_EQ(Drain(q), (std::vector<int>{3, 4, 5, 9}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  // A delay is relative to the popped event's time: callers push at
  // Now() + delay.
  EventHeap<int> q;
  q.Push(100.0, 0);
  q.Pop();
  q.Push(q.Now() + 50.0, 1);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Now(), 150.0);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  // A self-perpetuating chain of events (the pattern of the KeyDB
  // server-thread loop).
  EventHeap<int> q;
  q.Push(0.0, 1);
  int depth = 0;
  while (!q.empty()) {
    depth = q.Pop();
    if (depth < 100) {
      q.Push(q.Now() + 1.0, depth + 1);
    }
  }
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.Now(), 99.0);
}

TEST(EventQueueTest, NowNeverGoesBackwards) {
  // Random pushes at or after Now(), interleaved with pops: every pop lands
  // at or after the previous one, and Now() is the popped entry's time.
  EventHeap<double> q;
  Rng rng(7);
  double last = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    if (q.empty() || rng.NextBool(0.55)) {
      const double when = q.Now() + rng.NextDouble(0.0, 10.0) * rng.NextBounded(2);
      q.Push(when, when);
    } else {
      const double when = q.Pop();
      ASSERT_EQ(q.Now(), when);
      ASSERT_GE(q.Now(), last);
      last = q.Now();
    }
  }
}

TEST(EventQueueTest, EmptyQueue) {
  EventHeap<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.Now(), 0.0);
}

}  // namespace
}  // namespace cxl::sim
