// Tests for the sim/ discrete-event engine: cancellable events,
// process handles and max-min fair sharing. (The legacy scheduling
// semantics are covered by test_simulation.cpp through the
// `Simulation` alias.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"

namespace ocelot::sim {
namespace {

TEST(Engine, CancelledEventNeverFires) {
  Engine engine;
  int fired = 0;
  EventHandle keep = engine.schedule_at(1.0, [&] { ++fired; });
  EventHandle drop = engine.schedule_at(2.0, [&] { fired += 100; });
  EXPECT_TRUE(drop.active());
  EXPECT_TRUE(drop.cancel());
  EXPECT_FALSE(drop.active());
  EXPECT_FALSE(drop.cancel());  // second cancel is a no-op
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(keep.cancel() == false);  // already fired
}

TEST(Engine, CancelInsideCallbackSuppressesLaterEvent) {
  Engine engine;
  int fired = 0;
  EventHandle later = engine.schedule_at(5.0, [&] { ++fired; });
  engine.schedule_at(1.0, [&] { later.cancel(); });
  const std::size_t executed = engine.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(executed, 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);  // clock never reached 5.0
}

TEST(Engine, ProcessLifecycleIsStamped) {
  Engine engine;
  ProcessHandle proc;
  engine.schedule_at(2.0, [&] { proc = engine.spawn("worker"); });
  engine.schedule_at(7.0, [&] { proc->finish(); });
  engine.run();
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->name(), "worker");
  EXPECT_EQ(proc->state(), ProcessState::kDone);
  EXPECT_DOUBLE_EQ(proc->spawned_at(), 2.0);
  EXPECT_DOUBLE_EQ(proc->exited_at(), 7.0);
  EXPECT_EQ(engine.running_processes(), 0u);
}

TEST(Engine, ProcessExitObserversFire) {
  Engine engine;
  ProcessHandle proc = engine.spawn("p");
  double observed = -1.0;
  proc->on_exit([&] { observed = engine.now(); });
  engine.schedule_at(3.0, [&] { proc->cancel(); });
  engine.run();
  EXPECT_EQ(proc->state(), ProcessState::kCancelled);
  EXPECT_DOUBLE_EQ(observed, 3.0);
  EXPECT_THROW(proc->finish(), InvalidArgument);  // already exited
}

TEST(FairShare, MaxMinSatisfiesSmallDemandsFirst) {
  // Capacity 10 over demands {2, 20, 20}: the small flow gets its 2,
  // the rest split the remaining 8 evenly.
  const std::vector<double> demands{2.0, 20.0, 20.0};
  const std::vector<double> alloc = max_min_allocation(10.0, demands);
  EXPECT_DOUBLE_EQ(alloc[0], 2.0);
  EXPECT_DOUBLE_EQ(alloc[1], 4.0);
  EXPECT_DOUBLE_EQ(alloc[2], 4.0);
}

TEST(FairShare, MaxMinLeavesSlackWhenDemandIsLow) {
  const std::vector<double> demands{1.0, 2.0};
  const std::vector<double> alloc = max_min_allocation(10.0, demands);
  EXPECT_DOUBLE_EQ(alloc[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc[1], 2.0);
}

TEST(FairShare, SoloFlowRunsAtFullSpeed) {
  Engine engine;
  FairShareChannel channel(engine, "wan", 100.0);
  double done_at = -1.0;
  channel.open_flow(/*demand=*/50.0, /*work_seconds=*/8.0,
                    [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 8.0);  // exactly the solo service time
}

TEST(FairShare, TwoEqualFlowsHalveEachOther) {
  Engine engine;
  FairShareChannel channel(engine, "wan", 100.0);
  double a_done = -1.0, b_done = -1.0;
  // Each flow alone would saturate the channel for 10s; together they
  // each run at half speed until one leaves.
  channel.open_flow(100.0, 10.0, [&] { a_done = engine.now(); });
  channel.open_flow(100.0, 10.0, [&] { b_done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 20.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
}

TEST(FairShare, LateArrivalSlowsTheFirstFlow) {
  Engine engine;
  FairShareChannel channel(engine, "wan", 100.0);
  double a_done = -1.0, b_done = -1.0;
  channel.open_flow(100.0, 10.0, [&] { a_done = engine.now(); });
  engine.schedule_at(5.0, [&] {
    channel.open_flow(100.0, 10.0, [&] { b_done = engine.now(); });
  });
  engine.run();
  // A runs alone for 5s (5s of service), then shares: the remaining 5s
  // of service take 10s. B then finishes its last 5s alone.
  EXPECT_DOUBLE_EQ(a_done, 15.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
}

TEST(FairShare, CancellationReturnsBandwidth) {
  Engine engine;
  FairShareChannel channel(engine, "wan", 100.0);
  double a_done = -1.0;
  channel.open_flow(100.0, 10.0, [&] { a_done = engine.now(); });
  const FairShareChannel::FlowId victim =
      channel.open_flow(100.0, 10.0, [&] { FAIL() << "cancelled flow"; });
  engine.schedule_at(4.0, [&] { channel.cancel_flow(victim); });
  engine.run();
  // A: 4s shared (2s of service) + 8s alone = 12s total.
  EXPECT_DOUBLE_EQ(a_done, 12.0);
  EXPECT_EQ(channel.stats().flows_cancelled, 1u);
  EXPECT_EQ(channel.stats().flows_completed, 1u);
}

TEST(FairShare, ProgressHistoryInvertsCorrectly) {
  Engine engine;
  FairShareChannel channel(engine, "wan", 100.0);
  const FairShareChannel::FlowId a = channel.open_flow(100.0, 10.0, {});
  engine.schedule_at(5.0, [&] { channel.open_flow(100.0, 10.0, {}); });
  engine.run();
  // Flow a: service 5 delivered at t=5, service 7.5 at t=10 (half
  // rate), service 10 at t=15.
  EXPECT_DOUBLE_EQ(channel.progress_at(a, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(channel.progress_at(a, 10.0), 7.5);
  EXPECT_DOUBLE_EQ(channel.delivery_time(a, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(channel.delivery_time(a, 7.5), 10.0);
  EXPECT_DOUBLE_EQ(channel.delivery_time(a, 10.0), 15.0);
  EXPECT_EQ(channel.delivery_time(a, 10.5), FairShareChannel::kNever);
}

TEST(FairShare, IncrementalRatesEqualMaxMinOracleExactly) {
  // Every op runs at t=0, so each active flow has a single rate segment
  // starting at service 0 and progress_at(id, 1.0) is exactly its
  // current rate fraction. The channel's incremental pass promises
  // max_min_allocation's floating-point operation order, not just its
  // math, so the comparison is exact ==. Coarse demands make ties
  // common; capacities are arbitrary reals so the fair-share divisions
  // round.
  std::size_t checks = 0;
  for (const std::uint64_t seed : {3ull, 17ull, 2024ull}) {
    Engine engine;
    double capacity = 1000.0;
    FairShareChannel channel(engine, "wan", capacity);
    Rng rng(seed);
    std::vector<FairShareChannel::FlowId> ids;  // active, ascending
    std::vector<double> demands;                // parallel to ids
    for (int op = 0; op < 300; ++op) {
      const double r = rng.uniform();
      if (r < 0.55 || ids.empty()) {
        const double demand =
            25.0 * static_cast<double>(rng.uniform_int(1, 16));
        ids.push_back(channel.open_flow(demand, 1e6, {}));
        demands.push_back(demand);
      } else if (r < 0.85) {
        const auto victim =
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1);
        channel.cancel_flow(ids[victim]);
        ids.erase(ids.begin() + victim);
        demands.erase(demands.begin() + victim);
      } else {
        capacity = rng.uniform(100.0, 2000.0);
        channel.set_capacity(capacity);
      }
      const std::vector<double> alloc = max_min_allocation(capacity, demands);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(channel.progress_at(ids[i], 1.0), alloc[i] / demands[i])
            << "seed " << seed << " op " << op << " flow " << ids[i];
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 10000u);
}

TEST(FairShare, StatsIntegrateUtilization) {
  Engine engine;
  FairShareChannel channel(engine, "wan", 100.0);
  channel.open_flow(100.0, 10.0, {});
  channel.open_flow(100.0, 10.0, {});
  engine.run();
  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.peak_flows, 2u);
  EXPECT_EQ(stats.flows_completed, 2u);
  // Both flows ran 20s at 50 units/s: 2000 units over 20 busy seconds.
  EXPECT_NEAR(stats.units_delivered, 2000.0, 1e-6);
  EXPECT_NEAR(stats.busy_seconds, 20.0, 1e-9);
  EXPECT_NEAR(stats.flow_seconds, 40.0, 1e-9);
}

}  // namespace
}  // namespace ocelot::sim
