// Tests for the streaming scratch pools: acquire/release reuse,
// lease RAII under exceptions, stats accounting, and concurrent use
// from the executor's worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "common/buffer_pool.hpp"
#include "exec/thread_pool.hpp"

namespace ocelot {
namespace {

TEST(BufferPool, AcquireReleasePreservesCapacity) {
  BufferPool pool;
  Bytes a = pool.acquire(1024);
  EXPECT_GE(a.capacity(), 1024u);
  a.resize(600);
  pool.release(std::move(a));

  // The same storage comes back cleared but with capacity intact.
  Bytes b = pool.acquire();
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 1024u);

  const auto stats = pool.stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
}

TEST(BufferPool, StatsTrackOutstandingAndFree) {
  BufferPool pool;
  Bytes a = pool.acquire();
  Bytes b = pool.acquire();
  EXPECT_EQ(pool.stats().outstanding, 2u);
  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().outstanding, 1u);
  EXPECT_EQ(pool.stats().free, 1u);
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().free, 2u);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BufferPool, PooledBufferReleasesOnDestruction) {
  BufferPool pool;
  {
    PooledBuffer lease(pool, 64);
    lease->push_back(7);
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
}

TEST(BufferPool, PooledBufferReleasesWhenOwnerThrows) {
  BufferPool pool;
  const auto throwing_stage = [&] {
    PooledBuffer lease(pool, 128);
    lease->assign(100, 1);
    throw std::runtime_error("stage failure");
  };
  EXPECT_THROW(throwing_stage(), std::runtime_error);
  // The buffer went back to the pool, not out of circulation.
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
}

TEST(BufferPool, PooledBufferMoveTransfersTheLease) {
  BufferPool pool;
  PooledBuffer a(pool);
  a->push_back(42);
  PooledBuffer b = std::move(a);
  EXPECT_FALSE(a.leased());
  EXPECT_TRUE(b.leased());
  EXPECT_EQ((*b)[0], 42);
  b.reset();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(ScratchPool, LeaseRoundTripAndTake) {
  ScratchPool<float> pool;
  {
    ScratchLease<float> lease(pool, 32);
    lease->assign(10, 1.5f);
    std::vector<float> taken = lease.take();  // disarms the lease
    EXPECT_EQ(taken.size(), 10u);
    pool.release(std::move(taken));
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
  EXPECT_EQ(pool.stats().created, 1u);
}

TEST(BufferPool, SteadyStateReusesAcrossParallelForBatches) {
  // The executor's worker threads are created per parallel_for call;
  // a process-wide pool is what carries capacity across calls. After
  // a warm-up batch, later batches must be served from the free list.
  BufferPool pool;
  const auto batch = [&] {
    parallel_for(64, 4, [&](std::size_t) {
      PooledBuffer lease(pool, 256);
      lease->assign(200, 9);
    });
  };
  batch();
  batch();
  batch();
  const auto after = pool.stats();
  // 192 acquires total; fresh buffers are bounded by worker
  // concurrency (4), everything else is served from the free list.
  EXPECT_LE(after.created, 4u);
  EXPECT_EQ(after.created + after.reused, 192u);
  EXPECT_GE(after.reused, 188u);
  EXPECT_EQ(after.outstanding, 0u);
}

TEST(BufferPool, SharedIsOneProcessWidePool) {
  EXPECT_EQ(&BufferPool::shared(), &BufferPool::shared());
}

TEST(BufferPool, FreeListIsBounded) {
  BufferPool pool;
  std::vector<Bytes> leased;
  for (int i = 0; i < 200; ++i) leased.push_back(pool.acquire(16));
  for (auto& b : leased) pool.release(std::move(b));
  // Releases beyond the cap destroy buffers instead of hoarding them.
  EXPECT_LE(pool.stats().free, 64u);
}

}  // namespace
}  // namespace ocelot
