// Differential and regression tests for the event queue: the calendar
// queue must pop the exact (time, seq, payload) sequence the binary-heap
// oracle (tests/support/heap_queue.hpp) pops on any workload, both must
// keep memory O(live) under schedule/cancel churn, and the supporting
// pieces (InlineFunction, ChunkPool) must behave as advertised.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inline_function.hpp"
#include "common/pool_alloc.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "support/heap_queue.hpp"

namespace ocelot::sim {
namespace {

/// One scripted queue operation, generated once and replayed against
/// both queues.
struct Op {
  enum Kind { kPush, kPop, kCancel } kind;
  double time_draw = 0.0;   ///< for kPush: offset factor over `now`
  std::size_t target = 0;   ///< for kCancel: index into issued handles
};

std::vector<Op> make_script(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = rng.uniform();
    if (r < 0.55) {
      Op op{Op::kPush, 0.0, 0};
      const double shape = rng.uniform();
      if (shape < 0.25) {
        op.time_draw = 0.0;  // exactly `now`: exercises tie-breaking
      } else if (shape < 0.55) {
        op.time_draw = rng.uniform(0.0, 1.0);  // near past/present
      } else if (shape < 0.9) {
        op.time_draw = rng.uniform(1.0, 50.0);  // bursty mid-range
      } else {
        op.time_draw = rng.uniform(1e4, 1e6);  // far future
      }
      ops.push_back(op);
    } else if (r < 0.85) {
      ops.push_back(Op{Op::kPop, 0.0, 0});
    } else {
      ops.push_back(
          Op{Op::kCancel, 0.0,
             static_cast<std::size_t>(rng.uniform_int(0, 1 << 20))});
    }
  }
  return ops;
}

/// Replays `ops` on a fresh `Queue`; returns the popped (time, payload)
/// sequence. Push times honour the engine contract (>= last popped
/// time).
template <typename Queue>
std::vector<std::pair<double, int>> replay(const std::vector<Op>& ops) {
  Queue queue;
  std::vector<std::pair<double, int>> popped;
  std::vector<typename Queue::Handle> handles;
  double now = 0.0;
  int payload = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const int id = payload++;
        handles.push_back(queue.push(
            now + op.time_draw, [&popped, &now, id] {
              // The pop loop below records the time; remember payload.
              popped.emplace_back(now, id);
            }));
        break;
      }
      case Op::kPop: {
        if (queue.empty()) break;
        auto [time, cb] = queue.pop();
        now = time;
        cb();
        break;
      }
      case Op::kCancel: {
        if (handles.empty()) break;
        handles[op.target % handles.size()].cancel();
        break;
      }
    }
  }
  while (!queue.empty()) {
    auto [time, cb] = queue.pop();
    now = time;
    cb();
  }
  return popped;
}

TEST(EventQueueDifferential, CalendarMatchesHeapOnRandomWorkloads) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99999ull}) {
    const std::vector<Op> ops = make_script(seed, 4000);
    const auto heap = replay<HeapQueue>(ops);
    const auto calendar = replay<EventQueue>(ops);
    ASSERT_EQ(heap.size(), calendar.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.size(); ++i) {
      EXPECT_EQ(heap[i].first, calendar[i].first)
          << "seed " << seed << " pop " << i;
      EXPECT_EQ(heap[i].second, calendar[i].second)
          << "seed " << seed << " pop " << i;
    }
  }
}

/// Contract tests run against both the calendar queue and the heap
/// oracle: a replacement queue must pass them too.
template <typename Queue>
class QueueContract : public ::testing::Test {};
using QueueTypes = ::testing::Types<EventQueue, HeapQueue>;
TYPED_TEST_SUITE(QueueContract, QueueTypes);

TYPED_TEST(QueueContract, TiesPopInSubmissionOrder) {
  TypeParam queue;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    queue.push(3.25, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().second();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TYPED_TEST(QueueContract, NearPastPushAfterFarFuturePop) {
  // Events scheduled behind the scan frontier (but >= the last popped
  // time) must still come out in order — the calendar rewinds.
  TypeParam queue;
  queue.push(1e6, [] {});
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.pop().first, 1e6);
  queue.push(1e6 + 1.0, [] {});
  queue.push(1e6, [] {});  // == last popped time: near past
  EXPECT_EQ(queue.pop().first, 1e6);
  EXPECT_EQ(queue.pop().first, 1e6 + 1.0);
  EXPECT_TRUE(queue.empty());
}

TYPED_TEST(QueueContract, MemoryStaysProportionalToLiveEvents) {
  // Schedule/cancel churn: every round adds two events and cancels
  // one; tombstone sweeps must keep physical storage O(live).
  TypeParam queue;
  Rng rng(5);
  double now = 0.0;
  for (int round = 0; round < 20000; ++round) {
    // The timeout-rearm pattern that used to leak: each round arms
    // two far-future timeouts, retracts them (they never reach the
    // pop frontier, so only the threshold sweep can reclaim them),
    // and executes one near event.
    auto a = queue.push(now + rng.uniform(1e5, 2e5), [] {});
    auto b = queue.push(now + rng.uniform(1e5, 2e5), [] {});
    queue.push(now + rng.uniform(0.0, 10.0), [] {});
    a.cancel();
    b.cancel();
    if (!queue.empty()) now = queue.pop().first;
    const std::size_t bound = 4 * (queue.live() + 1) + 64;
    ASSERT_LE(queue.physical_entries(), bound) << "round " << round;
  }
  // The heap can only reclaim deep tombstones through compaction; the
  // calendar's bucket-head pruning alone keeps this workload at a
  // handful of physical entries (the bound above proves it).
  if constexpr (std::is_same_v<TypeParam, HeapQueue>) {
    EXPECT_GT(queue.purges(), 0u);
  }
}

TYPED_TEST(QueueContract, MassCancellationIsSweptPromptly) {
  TypeParam queue;
  std::vector<typename TypeParam::Handle> handles;
  for (int i = 0; i < 10000; ++i) {
    handles.push_back(queue.push(static_cast<double>(i), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i % 100 != 0) handles[i].cancel();
  }
  // A few pushes after the mass cancel trigger the sweep threshold.
  for (int i = 0; i < 100; ++i) {
    queue.push(20000.0 + i, [] {});
  }
  EXPECT_EQ(queue.live(), 200u);
  EXPECT_LE(queue.physical_entries(), 4 * (queue.live() + 1) + 64);
  EXPECT_GT(queue.purges(), 0u);
}

TEST(EventQueue, RejectsNonFiniteTimes) {
  EventQueue queue;
  EXPECT_THROW(queue.push(std::numeric_limits<double>::infinity(), [] {}),
               InvalidArgument);
  EXPECT_THROW(queue.push(std::numeric_limits<double>::quiet_NaN(), [] {}),
               InvalidArgument);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EagerPurgeSweepsTombstonesBehindLiveHeads) {
  // Tombstones sitting behind a live bucket head are invisible to the
  // lazy head pruning; only the eager whole-calendar purge reclaims
  // them once they outnumber live events.
  EventQueue queue;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 1000; ++i) {
    queue.push(static_cast<double>(i), [] {});  // live head
    doomed.push_back(queue.push(i + 0.3, [] {}));
    doomed.push_back(queue.push(i + 0.6, [] {}));
  }
  for (EventHandle& h : doomed) h.cancel();
  EXPECT_EQ(queue.purges(), 0u);
  queue.push(1000.0, [] {});  // trips the tombstones > live check
  EXPECT_GT(queue.purges(), 0u);
  EXPECT_EQ(queue.live(), 1001u);
  EXPECT_EQ(queue.physical_entries(), 1001u);
  std::size_t popped = 0;
  while (!queue.empty()) {
    queue.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 1001u);
}

TEST(EventQueue, BucketArrayGrowsAndShrinksWithLoad) {
  EventQueue queue;
  Rng rng(11);
  const std::size_t initial_buckets = queue.bucket_count();
  for (int i = 0; i < 10000; ++i) {
    queue.push(rng.uniform(0.0, 1000.0), [] {});
  }
  EXPECT_GT(queue.bucket_count(), initial_buckets);
  EXPECT_GT(queue.resizes(), 0u);
  double last = -1.0;
  while (!queue.empty()) {
    auto [time, cb] = queue.pop();
    EXPECT_GE(time, last);
    last = time;
  }
  EXPECT_EQ(queue.bucket_count(), initial_buckets);
}

TEST(InlineFunction, SmallCapturesStayInline) {
  int hits = 0;
  InlineFunction<void(), 64> fn([&hits] { ++hits; });
  EXPECT_TRUE(fn.is_inline());
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, OversizedCapturesFallBackToHeap) {
  double big[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  InlineFunction<double(), 64> fn([big] { return big[0] + big[11]; });
  EXPECT_FALSE(fn.is_inline());
  EXPECT_DOUBLE_EQ(fn(), 13.0);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineFunction<void(), 64> a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  InlineFunction<void(), 64> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(counter.use_count(), 2);  // exactly one owner moved, not copied
  b();
  EXPECT_EQ(*counter, 1);
  b = nullptr;
  EXPECT_EQ(counter.use_count(), 1);  // captures destroyed on reset
}

TEST(ChunkPool, RecyclesFreedBlocks) {
  ChunkPool pool;
  void* a = pool.allocate(48);
  pool.deallocate(a, 48);
  void* b = pool.allocate(40);  // same 64-byte size class
  EXPECT_EQ(a, b);
  pool.deallocate(b, 40);
  EXPECT_EQ(pool.chunks_allocated(), 1u);
  EXPECT_EQ(pool.oversize_allocs(), 0u);
}

TEST(ChunkPool, OversizeBlocksPassThrough) {
  ChunkPool pool;
  void* big = pool.allocate(1 << 20);
  EXPECT_EQ(pool.oversize_allocs(), 1u);
  EXPECT_EQ(pool.chunks_allocated(), 0u);
  pool.deallocate(big, 1 << 20);
}

TEST(PoolAllocator, BacksStandardContainers) {
  auto pool = std::make_shared<ChunkPool>();
  std::vector<double, PoolAllocator<double>> v{PoolAllocator<double>(pool)};
  for (int i = 0; i < 1000; ++i) v.push_back(i * 0.5);
  EXPECT_DOUBLE_EQ(v[999], 499.5);
  EXPECT_GT(pool->chunks_allocated(), 0u);
}

}  // namespace
}  // namespace ocelot::sim
