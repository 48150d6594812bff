// Tests for parallel_for: task execution, exception propagation (a
// worker throwing mid-batch must not leak pooled scratch), and
// per-thread buffer reuse on the streaming data path.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/buffer_pool.hpp"
#include "exec/thread_pool.hpp"

namespace ocelot {
namespace {

TEST(ParallelFor, ZeroThreadsThrows) {
  EXPECT_THROW(parallel_for(4, 0, [](std::size_t) {}), InvalidArgument);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> counts(1000);
  parallel_for(1000, 8, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, WorksWithMoreThreadsThanWork) {
  std::atomic<int> count{0};
  parallel_for(3, 16, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, ZeroIterationsIsNoOp) {
  parallel_for(0, 4, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("task failure");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, SingleThreadIsSequential) {
  std::vector<std::size_t> order;
  parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ExceptionDoesNotLeakPooledScratch) {
  BufferPool pool;
  EXPECT_THROW(
      parallel_for(50, 4,
                   [&](std::size_t i) {
                     PooledBuffer lease(pool, 64);
                     lease->push_back(1);
                     if (i == 21) throw std::runtime_error("task failure");
                   }),
      std::runtime_error);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(ParallelFor, PerThreadScratchIsReusedAcrossBatches) {
  // Worker threads die with each parallel_for call, so reuse must come
  // from the process-wide pool, not thread_local storage: 5 batches x
  // 40 tasks see at most one fresh buffer per concurrent worker.
  BufferPool pool;
  for (int batch = 0; batch < 5; ++batch) {
    parallel_for(40, 4, [&](std::size_t) {
      PooledBuffer lease(pool, 1024);
      lease->assign(512, 7);
    });
  }
  const auto stats = pool.stats();
  EXPECT_LE(stats.created, 4u);
  EXPECT_EQ(stats.created + stats.reused, 200u);
  EXPECT_EQ(stats.outstanding, 0u);
}

}  // namespace
}  // namespace ocelot
