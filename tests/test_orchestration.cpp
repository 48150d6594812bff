// Integration tests: funcX + batch scheduler + Globus transfer working
// together in one event-driven run (the multi-site orchestration
// pattern of examples/multi_site_orchestration.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/cluster_model.hpp"
#include "faas/funcx.hpp"
#include "netsim/sites.hpp"
#include "scheduler/batch.hpp"
#include "sim/engine.hpp"
#include "transfer/globus.hpp"

namespace ocelot {
namespace {

struct Burst {
  double produced = -1.0;
  double granted = -1.0;
  double compressed = -1.0;
  double delivered = -1.0;
};

std::vector<Burst> run_pipeline(int n_bursts, double burst_interval,
                                int machine_nodes, int nodes_per_job,
                                std::unique_ptr<WaitModel> wait) {
  sim::Engine sim;
  FuncXService faas(sim);
  const std::size_t ep = faas.add_endpoint({"ep"});
  faas.register_function("compress");
  GlobusService globus(sim);
  BatchScheduler scheduler(sim, machine_nodes, std::move(wait));
  const SiteSpec& anvil = site("Anvil");
  const ComputeRates rates{30e6, 250e6};
  const LinkProfile link = route("Anvil", "Cori");

  std::vector<Burst> log(static_cast<std::size_t>(n_bursts));
  int max_nodes_in_use = 0;
  int nodes_in_use = 0;

  for (int b = 0; b < n_bursts; ++b) {
    const double t = burst_interval * b;
    sim.schedule_at(t, [&, b, t] {
      log[static_cast<std::size_t>(b)].produced = t;
      scheduler.submit(nodes_per_job, [&, b](const Allocation& alloc) {
        log[static_cast<std::size_t>(b)].granted = sim.now();
        nodes_in_use += alloc.nodes;
        max_nodes_in_use = std::max(max_nodes_in_use, nodes_in_use);
        const std::vector<double> files(16, 1e9);
        const double cp = cluster_compress_seconds(
            files, alloc.nodes, anvil.cores_per_node, rates, anvil.fs);
        faas.submit(ep, "compress", {cp, [&, b, alloc] {
          log[static_cast<std::size_t>(b)].compressed = sim.now();
          nodes_in_use -= alloc.nodes;
          scheduler.release(alloc);
          TransferRequest req{"burst", link, std::vector<double>(16, 1e8)};
          globus.submit(req, [&, b](const TransferTask&) {
            log[static_cast<std::size_t>(b)].delivered = sim.now();
          });
        }});
      });
    });
  }
  sim.run();
  EXPECT_LE(max_nodes_in_use, machine_nodes);
  return log;
}

TEST(Orchestration, EveryBurstIsDelivered) {
  const auto log =
      run_pipeline(8, 100.0, 16, 4, std::make_unique<ImmediateWait>());
  for (const Burst& b : log) {
    EXPECT_GE(b.produced, 0.0);
    EXPECT_GE(b.granted, b.produced);
    EXPECT_GT(b.compressed, b.granted);
    EXPECT_GT(b.delivered, b.compressed);
  }
}

TEST(Orchestration, CapacityPressureSerializesJobs) {
  // One job's nodes are the whole machine: bursts must queue, and
  // grants must be strictly ordered.
  const auto log =
      run_pipeline(4, 1.0, 4, 4, std::make_unique<ImmediateWait>());
  for (std::size_t b = 1; b < log.size(); ++b) {
    EXPECT_GE(log[b].granted, log[b - 1].compressed)
        << "burst " << b << " overlapped its predecessor's allocation";
  }
}

TEST(Orchestration, QueueDelayShiftsWholeChain) {
  const auto fast =
      run_pipeline(3, 50.0, 64, 4, std::make_unique<ImmediateWait>());
  const auto slow = run_pipeline(
      3, 50.0, 64, 4,
      std::make_unique<TraceWait>(std::vector<double>{200.0, 200.0, 200.0}));
  for (std::size_t b = 0; b < fast.size(); ++b) {
    EXPECT_NEAR(slow[b].delivered - fast[b].delivered, 200.0, 1.0)
        << "burst " << b;
  }
}

TEST(Orchestration, DeterministicAcrossRuns) {
  const auto a =
      run_pipeline(5, 75.0, 32, 8, std::make_unique<StochasticWait>(7));
  const auto b =
      run_pipeline(5, 75.0, 32, 8, std::make_unique<StochasticWait>(7));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].delivered, b[i].delivered);
  }
}

}  // namespace
}  // namespace ocelot
