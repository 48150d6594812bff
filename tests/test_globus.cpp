// Tests for the Globus-style transfer service (submit/cancel/progress).
#include <gtest/gtest.h>

#include "netsim/sites.hpp"
#include "transfer/globus.hpp"

namespace ocelot {
namespace {

TransferRequest request_of(std::size_t n_files, double bytes_each) {
  TransferRequest req;
  req.label = "test";
  req.link = route("Anvil", "Cori");
  req.link.jitter_frac = 0.0;
  req.file_bytes.assign(n_files, bytes_each);
  return req;
}

TEST(Globus, CompletesAtEstimatedDuration) {
  sim::Engine sim;
  GlobusService globus(sim);
  double completed_at = -1.0;
  auto task = globus.submit(request_of(100, 1e8),
                            [&](const TransferTask&) { completed_at = sim.now(); });
  sim.run();
  EXPECT_EQ(task->status(), TransferTask::Status::kSucceeded);
  EXPECT_DOUBLE_EQ(completed_at, task->estimate().duration_s);
}

TEST(Globus, ProgressIsObservableMidFlight) {
  sim::Engine sim;
  GlobusService globus(sim);
  auto task = globus.submit(request_of(100, 1e8));
  const double half = task->estimate().duration_s / 2.0;
  sim.run_until(half);
  const std::size_t done = task->completed_files_at(sim.now());
  EXPECT_GT(done, 0u);
  EXPECT_LT(done, 100u);
  EXPECT_GT(task->completed_bytes_at(sim.now()), 0.0);
  sim.run();
  EXPECT_EQ(task->completed_files_at(sim.now()), 100u);
  EXPECT_DOUBLE_EQ(task->completed_bytes_at(sim.now()), 100 * 1e8);
}

TEST(Globus, CancelFreezesProgressAndSuppressesCallback) {
  sim::Engine sim;
  GlobusService globus(sim);
  bool callback_fired = false;
  auto task = globus.submit(request_of(50, 1e9),
                            [&](const TransferTask&) { callback_fired = true; });
  const double third = task->estimate().duration_s / 3.0;
  sim.run_until(third);
  task->cancel(sim.now());
  const std::size_t at_cancel = task->completed_files_at(sim.now());
  sim.run();
  EXPECT_EQ(task->status(), TransferTask::Status::kCancelled);
  EXPECT_FALSE(callback_fired);
  // Progress is frozen at the cancellation point.
  EXPECT_EQ(task->completed_files_at(sim.now() + 1000.0), at_cancel);
}

TEST(Globus, CancelAfterCompletionIsNoOp) {
  sim::Engine sim;
  GlobusService globus(sim);
  auto task = globus.submit(request_of(10, 1e6));
  sim.run();
  EXPECT_EQ(task->status(), TransferTask::Status::kSucceeded);
  task->cancel(sim.now());
  EXPECT_EQ(task->status(), TransferTask::Status::kSucceeded);
}

TEST(Globus, EmptyRequestThrows) {
  sim::Engine sim;
  GlobusService globus(sim);
  TransferRequest req;
  req.link = route("Anvil", "Cori");
  EXPECT_THROW((void)globus.submit(req), InvalidArgument);
}

TEST(Globus, ConcurrentTransfersProgressIndependently) {
  sim::Engine sim;
  GlobusService globus(sim);
  int completions = 0;
  auto t1 = globus.submit(request_of(10, 1e9),
                          [&](const TransferTask&) { ++completions; });
  auto t2 = globus.submit(request_of(500, 1e6),
                          [&](const TransferTask&) { ++completions; });
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(t1->status(), TransferTask::Status::kSucceeded);
  EXPECT_EQ(t2->status(), TransferTask::Status::kSucceeded);
}

}  // namespace
}  // namespace ocelot
