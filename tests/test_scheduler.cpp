// Tests for the batch-scheduler simulation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "scheduler/batch.hpp"

namespace ocelot {
namespace {

TEST(Scheduler, ImmediateGrantWhenIdle) {
  sim::Engine sim;
  BatchScheduler sched(sim, 10, std::make_unique<ImmediateWait>());
  double granted_at = -1.0;
  sched.submit(4, [&](const Allocation& a) {
    granted_at = a.granted_at;
    EXPECT_EQ(a.nodes, 4);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(granted_at, 0.0);
  EXPECT_EQ(sched.free_nodes(), 6);
}

TEST(Scheduler, TraceWaitDelaysGrant) {
  sim::Engine sim;
  BatchScheduler sched(sim, 10,
                       std::make_unique<TraceWait>(std::vector<double>{120.0}));
  double granted_at = -1.0;
  sched.submit(2, [&](const Allocation& a) { granted_at = a.granted_at; });
  sim.run();
  EXPECT_DOUBLE_EQ(granted_at, 120.0);
}

TEST(Scheduler, CapacityBlocksUntilRelease) {
  sim::Engine sim;
  BatchScheduler sched(sim, 8, std::make_unique<ImmediateWait>());
  Allocation first_alloc;
  double second_granted = -1.0;

  sched.submit(8, [&](const Allocation& a) { first_alloc = a; });
  sched.submit(4, [&](const Allocation& a) { second_granted = a.granted_at; });
  // Release the first allocation at t = 50.
  sim.schedule_at(50.0, [&] { sched.release(first_alloc); });
  sim.run();
  EXPECT_DOUBLE_EQ(second_granted, 50.0);
  EXPECT_EQ(sched.free_nodes(), 4);
}

TEST(Scheduler, FifoOrderingHolds) {
  sim::Engine sim;
  BatchScheduler sched(sim, 4, std::make_unique<ImmediateWait>());
  std::vector<int> grant_order;
  Allocation a0;
  sched.submit(4, [&](const Allocation& a) {
    a0 = a;
    grant_order.push_back(0);
  });
  sched.submit(2, [&](const Allocation&) { grant_order.push_back(1); });
  sched.submit(2, [&](const Allocation&) { grant_order.push_back(2); });
  sim.schedule_at(10.0, [&] { sched.release(a0); });
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, OversizeRequestThrows) {
  sim::Engine sim;
  BatchScheduler sched(sim, 4, std::make_unique<ImmediateWait>());
  EXPECT_THROW(sched.submit(5, [](const Allocation&) {}), InvalidArgument);
  EXPECT_THROW(sched.submit(0, [](const Allocation&) {}), InvalidArgument);
}

TEST(Scheduler, DoubleReleaseDetected) {
  sim::Engine sim;
  BatchScheduler sched(sim, 4, std::make_unique<ImmediateWait>());
  Allocation alloc;
  sched.submit(2, [&](const Allocation& a) { alloc = a; });
  sim.run();
  sched.release(alloc);
  EXPECT_THROW(sched.release(alloc), InvalidArgument);
}

TEST(WaitModels, StochasticIsBimodalAndDeterministic) {
  StochasticWait a(42, 0.5, 30.0, 600.0);
  StochasticWait b(42, 0.5, 30.0, 600.0);
  int short_waits = 0, long_waits = 0;
  for (int i = 0; i < 500; ++i) {
    const double wa = a.next_wait_seconds();
    EXPECT_DOUBLE_EQ(wa, b.next_wait_seconds());  // same seed, same draws
    if (wa <= 30.0) {
      ++short_waits;
    } else {
      ++long_waits;
    }
  }
  EXPECT_GT(short_waits, 100);
  EXPECT_GT(long_waits, 50);
}

TEST(WaitModels, TraceRepeatsLastEntry) {
  TraceWait trace({1.0, 2.0});
  EXPECT_DOUBLE_EQ(trace.next_wait_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(trace.next_wait_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(trace.next_wait_seconds(), 2.0);
}

}  // namespace
}  // namespace ocelot
