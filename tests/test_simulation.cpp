// Tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace ocelot {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  sim::Engine sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, TiesBreakBySubmissionOrder) {
  sim::Engine sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, CallbacksCanScheduleMoreEvents) {
  sim::Engine sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.schedule_in(1.0, step);
  };
  sim.schedule_in(1.0, step);
  const std::size_t executed = sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(executed, 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  sim::Engine sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, SchedulingInThePastThrows) {
  sim::Engine sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), InvalidArgument);
  EXPECT_THROW(sim.schedule_in(-0.5, [] {}), InvalidArgument);
}

TEST(Simulation, ClockIsMonotone) {
  sim::Engine sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(static_cast<double>(100 - i), [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 100u);
}

}  // namespace
}  // namespace ocelot
