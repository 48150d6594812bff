#include "core/sentinel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/grouping.hpp"
#include "sim/engine.hpp"
#include "transfer/globus.hpp"

namespace ocelot {

SentinelReport run_sentinel(const FileInventory& inventory,
                            SentinelConfig config) {
  require(!inventory.raw_bytes.empty(), "run_sentinel: empty inventory");
  require(config.wait_model != nullptr, "run_sentinel: null wait model");

  const LinkProfile link = route(config.campaign.src, config.campaign.dst);
  const SiteSpec& src_site = site(config.campaign.src);
  const SiteSpec& dst_site = site(config.campaign.dst);

  sim::Engine sim;
  GlobusService globus(sim);
  BatchScheduler scheduler(sim, config.machine_nodes,
                           std::move(config.wait_model));

  SentinelReport report;

  // Start the uncompressed transfer immediately (Fig. 10 left path).
  TransferRequest raw_req{inventory.app + "/raw", link, inventory.raw_bytes};
  bool raw_finished = false;
  auto raw_task = globus.submit(raw_req, [&](const TransferTask&) {
    raw_finished = true;
    report.total_seconds = sim.now();
  });

  // Concurrently request compute nodes for compression.
  scheduler.submit(
      config.campaign.compress_nodes, [&](const Allocation& alloc) {
        if (raw_finished) {
          // Nodes arrived after everything already moved uncompressed;
          // release them untouched (worst case of Section VII-B).
          scheduler.release(alloc);
          return;
        }
        report.nodes_granted = true;
        report.node_wait_seconds = sim.now();

        // Stop the raw transfer; consult the meta file for files that
        // no longer need compression.
        raw_task->cancel(sim.now());
        const std::size_t done = raw_task->completed_files_at(sim.now());
        report.files_sent_raw = done;
        for (std::size_t i = 0; i < done; ++i) {
          report.meta_file.push_back(inventory.app + "/file-" +
                                     std::to_string(i));
        }

        const std::size_t remaining = inventory.file_count() - done;
        if (remaining == 0) {
          scheduler.release(alloc);
          report.total_seconds = sim.now();
          return;
        }

        // Compress the remaining files on the granted nodes.
        std::vector<double> rest(inventory.raw_bytes.begin() +
                                     static_cast<std::ptrdiff_t>(done),
                                 inventory.raw_bytes.end());
        const double cp = cluster_compress_seconds(
            rest, alloc.nodes, config.campaign.compress_cores_per_node,
            config.campaign.rates, src_site.fs,
            config.campaign.block_bytes);
        report.compress_seconds = cp;
        report.files_sent_compressed = remaining;

        sim.schedule_in(cp, [&, alloc, rest] {
          scheduler.release(alloc);
          std::vector<double> compressed(rest.size());
          for (std::size_t i = 0; i < rest.size(); ++i) {
            compressed[i] = rest[i] / config.campaign.compression_ratio;
          }
          const GroupPlan plan = plan_groups_by_world_size(
              compressed.size(), config.campaign.group_world_size);
          TransferRequest comp_req{inventory.app + "/compressed", link,
                                   group_sizes(plan, compressed)};
          // `rest` must be captured by value: the enclosing lambda (and
          // its copy of `rest`) is destroyed when this scheduled event
          // finishes, long before the transfer completion fires.
          globus.submit(comp_req, [&, rest](const TransferTask&) {
            const double dp = cluster_decompress_seconds(
                rest, config.campaign.decompress_nodes,
                config.campaign.decompress_cores_per_node,
                config.campaign.rates, dst_site.fs,
                config.campaign.block_bytes);
            report.decompress_seconds = dp;
            sim.schedule_in(dp, [&] { report.total_seconds = sim.now(); });
          });
        });
      });

  sim.run();

  // Accounting: bytes actually on the wire.
  const double raw_bytes_moved = raw_task->completed_bytes_at(
      report.nodes_granted ? report.node_wait_seconds : report.total_seconds);
  double compressed_moved = 0.0;
  if (report.nodes_granted) {
    for (std::size_t i = report.files_sent_raw; i < inventory.file_count();
         ++i) {
      compressed_moved +=
          inventory.raw_bytes[i] / config.campaign.compression_ratio;
    }
  }
  if (!report.nodes_granted) {
    report.files_sent_raw = inventory.file_count();
    report.node_wait_seconds = report.total_seconds;
  }
  report.bytes_on_wire = raw_bytes_moved + compressed_moved;
  return report;
}

}  // namespace ocelot
