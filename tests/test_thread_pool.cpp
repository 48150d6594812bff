// Tests for parallel_for: task execution, exception propagation (a
// worker throwing mid-batch must not leak pooled scratch), per-thread
// buffer reuse on the streaming data path, and a helper thread that
// fails to start.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdlib>
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
  ScratchPool<std::uint8_t> pool;
  EXPECT_THROW(
      parallel_for(50, 4,
                   [&](std::size_t i) {
                     ScratchLease<std::uint8_t> lease(pool, 64);
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
  ScratchPool<std::uint8_t> pool;
  for (int batch = 0; batch < 5; ++batch) {
    parallel_for(40, 4, [&](std::size_t) {
      ScratchLease<std::uint8_t> lease(pool, 1024);
      lease->assign(512, 7);
    });
  }
  const auto stats = pool.stats();
  EXPECT_LE(stats.created, 4u);
  EXPECT_EQ(stats.created + stats.reused, 200u);
  EXPECT_EQ(stats.outstanding, 0u);
}

/// The calling process's virtual size in bytes, read from
/// /proc/self/statm with no heap allocation (a heap that grows here
/// would eat the address-space headroom the caller is measuring).
std::size_t virtual_size_bytes() {
  char buf[128] = {};
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t got = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (got <= 0) return 0;
  return std::strtoull(buf, nullptr, 10) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Caps the address space at its current size plus room for one
/// thread stack, runs parallel_for(8, 4) and exits: 0 when every index
/// ran exactly once, 10/11 when the cap could not be set, 12 when
/// parallel_for threw, 13 when an index ran zero or two times.
[[noreturn]] void parallel_for_with_one_stack_of_headroom(
    std::size_t stack_bytes) {
  std::array<std::atomic<int>, 8> runs{};
  try {
    const std::size_t vsz = virtual_size_bytes();
    if (vsz == 0) ::_exit(10);
    const rlim_t cap = vsz + stack_bytes + (2u << 20);
    const rlimit limit{cap, cap};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(11);
    parallel_for(8, 4, [&](std::size_t i) { runs[i].fetch_add(1); });
  } catch (...) {
    ::_exit(12);
  }
  for (const auto& r : runs) {
    if (r.load() != 1) ::_exit(13);
  }
  ::_exit(0);
}

TEST(ParallelFor, HelperThatFailsToStartStillRunsEveryIndex) {
#ifdef OCELOT_SANITIZE_BUILD
  GTEST_SKIP() << "RLIMIT_AS breaks the sanitizer shadow maps";
#else
  // A child process gets room for one helper's stack, so the first
  // helper starts and the second cannot map one. parallel_for must
  // still run every index once and return normally; it used to unwind
  // past a joinable std::thread, which calls std::terminate. The
  // threadsafe style re-executes the test binary for the child, so no
  // thread stack cached by an earlier test can stand in for the map
  // that must fail.
  std::size_t stack_bytes = 0;
  pthread_attr_t attr;
  ASSERT_EQ(pthread_getattr_default_np(&attr), 0);
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  ASSERT_GT(stack_bytes, 0u);
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(parallel_for_with_one_stack_of_headroom(stack_bytes),
              ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace ocelot
