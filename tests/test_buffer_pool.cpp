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

TEST(ScratchPool, AcquireReleasePreservesCapacity) {
  ScratchPool<std::uint8_t> pool;
  std::vector<std::uint8_t> a = pool.acquire(1024);
  EXPECT_GE(a.capacity(), 1024u);
  a.resize(600);
  pool.release(std::move(a));

  // The same storage comes back cleared but with capacity intact.
  std::vector<std::uint8_t> b = pool.acquire();
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 1024u);

  const auto stats = pool.stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
}

TEST(ScratchPool, StatsTrackOutstandingAndFree) {
  ScratchPool<std::uint8_t> pool;
  std::vector<std::uint8_t> a = pool.acquire();
  std::vector<std::uint8_t> b = pool.acquire();
  EXPECT_EQ(pool.stats().outstanding, 2u);
  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().outstanding, 1u);
  EXPECT_EQ(pool.stats().free, 1u);
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().free, 2u);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(ScratchPool, LeaseReleasesOnDestruction) {
  ScratchPool<std::uint8_t> pool;
  {
    ScratchLease<std::uint8_t> lease(pool, 64);
    lease->push_back(7);
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
}

TEST(ScratchPool, LeaseReleasesWhenOwnerThrows) {
  ScratchPool<std::uint8_t> pool;
  const auto throwing_stage = [&] {
    ScratchLease<std::uint8_t> lease(pool, 128);
    lease->assign(100, 1);
    throw std::runtime_error("stage failure");
  };
  EXPECT_THROW(throwing_stage(), std::runtime_error);
  // The buffer went back to the pool, not out of circulation.
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
}

TEST(ScratchPool, LeaseMoveTransfersTheLease) {
  ScratchPool<std::uint8_t> pool;
  ScratchLease<std::uint8_t> a(pool);
  a->push_back(42);
  ScratchLease<std::uint8_t> b = std::move(a);
  // The moved-from lease no longer owns the buffer: resetting it
  // returns nothing to the pool.
  a.reset();
  EXPECT_EQ(pool.stats().outstanding, 1u);
  EXPECT_EQ((*b)[0], 42);
  b.reset();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
}

TEST(ScratchPool, ElementLeaseRoundTrip) {
  ScratchPool<float> pool;
  {
    ScratchLease<float> lease(pool, 32);
    EXPECT_GE(lease->capacity(), 32u);
    lease->assign(10, 1.5f);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
  EXPECT_EQ(pool.stats().created, 1u);
  EXPECT_GE(pool.stats().pooled_capacity, 32u);
}

TEST(ScratchPool, SteadyStateReusesAcrossParallelForBatches) {
  // The executor's worker threads are created per parallel_for call;
  // a process-wide pool is what carries capacity across calls. After
  // a warm-up batch, later batches must be served from the free list.
  ScratchPool<std::uint8_t> pool;
  const auto batch = [&] {
    parallel_for(64, 4, [&](std::size_t) {
      ScratchLease<std::uint8_t> lease(pool, 256);
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

TEST(ScratchPool, SharedIsOneProcessWidePool) {
  EXPECT_EQ(&ScratchPool<std::uint8_t>::shared(),
            &ScratchPool<std::uint8_t>::shared());
}

TEST(ScratchPool, FreeListIsBounded) {
  ScratchPool<std::uint8_t> pool;
  std::vector<std::vector<std::uint8_t>> leased;
  for (int i = 0; i < 200; ++i) leased.push_back(pool.acquire(16));
  for (auto& b : leased) pool.release(std::move(b));
  // Releases beyond the cap destroy buffers instead of hoarding them.
  EXPECT_LE(pool.stats().free, 64u);
}

}  // namespace
}  // namespace ocelot
