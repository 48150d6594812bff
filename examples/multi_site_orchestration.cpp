// Multi-site orchestration scenario: the full simulated testbed in one
// program — funcX-style remote dispatch, batch scheduling with queue
// delays, Globus-style transfer, and the shared-filesystem model —
// driving an instrument-to-analysis data flow (APS-style use case from
// the paper's introduction).
//
//   $ ./multi_site_orchestration
#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "core/workload.hpp"
#include "exec/cluster_model.hpp"
#include "faas/funcx.hpp"
#include "netsim/sites.hpp"
#include "scheduler/batch.hpp"
#include "sim/engine.hpp"
#include "transfer/globus.hpp"

using namespace ocelot;

int main() {
  std::cout << "=== Multi-site orchestration: instrument burst at Anvil, "
               "analysis at Cori ===\n\n";

  // An instrument produces 10 bursts of 64 files x 1 GB, one burst
  // every 200 s. Each burst is compressed on scheduled nodes (CR 12x)
  // and shipped to the analysis site.
  constexpr int kBursts = 10;
  constexpr int kFilesPerBurst = 64;
  constexpr double kFileBytes = 1e9;
  constexpr double kRatio = 12.0;
  constexpr int kNodesPerJob = 4;

  sim::Engine sim;
  FuncXService faas(sim);
  const std::size_t anvil_ep = faas.add_endpoint({"anvil-ep"});
  faas.register_function("compress");
  GlobusService globus(sim);
  // Queue pressure: mostly short waits, occasionally minutes.
  BatchScheduler scheduler(sim, 64,
                           std::make_unique<StochasticWait>(99, 0.7, 20.0, 240.0));

  const SiteSpec& anvil = site("Anvil");
  const ComputeRates rates{30e6, 250e6};
  const LinkProfile link = route("Anvil", "Cori");

  struct BurstLog {
    double produced = 0.0;
    double nodes_granted = 0.0;
    double compressed = 0.0;
    double delivered = 0.0;
  };
  std::vector<BurstLog> log(kBursts);

  for (int b = 0; b < kBursts; ++b) {
    const double t_produce = 200.0 * b;
    sim.schedule_at(t_produce, [&, b, t_produce] {
      log[b].produced = t_produce;
      scheduler.submit(kNodesPerJob, [&, b](const Allocation& alloc) {
        log[b].nodes_granted = sim.now();
        const std::vector<double> files(kFilesPerBurst, kFileBytes);
        const double cp = cluster_compress_seconds(
            files, alloc.nodes, anvil.cores_per_node, rates, anvil.fs);
        // Remote compression via funcX on the granted nodes.
        faas.submit(anvil_ep, "compress",
                    {cp, [&, b, alloc] {
                       log[b].compressed = sim.now();
                       scheduler.release(alloc);
                       TransferRequest req{
                           "burst-" + std::to_string(b), link,
                           std::vector<double>(kFilesPerBurst,
                                               kFileBytes / kRatio)};
                       globus.submit(req, [&, b](const TransferTask&) {
                         log[b].delivered = sim.now();
                       });
                     }});
      });
    });
  }
  sim.run();

  TextTable table({"burst", "produced", "nodes granted", "compressed",
                   "delivered", "end-to-end (s)"});
  double worst = 0.0;
  for (int b = 0; b < kBursts; ++b) {
    const double latency = log[b].delivered - log[b].produced;
    worst = std::max(worst, latency);
    table.add_row({std::to_string(b), fmt_seconds(log[b].produced),
                   fmt_seconds(log[b].nodes_granted),
                   fmt_seconds(log[b].compressed),
                   fmt_seconds(log[b].delivered), fmt_double(latency, 1)});
  }
  table.print(std::cout);

  const std::vector<double> raw_files(kFilesPerBurst, kFileBytes);
  const GridFtpModel model;
  const double direct = model.estimate(raw_files, link).duration_s;
  std::cout << "\nuncompressed burst transfer would take "
            << fmt_double(direct, 1) << "s of WAN time per burst; "
            << "compressed bursts finish end-to-end (queue + compress + "
               "WAN) in at most "
            << fmt_double(worst, 1) << "s.\n";
  return 0;
}
