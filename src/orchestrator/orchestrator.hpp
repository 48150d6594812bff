#pragma once
// Multi-campaign orchestrator.
//
// The paper evaluates one campaign at a time; a production deployment
// serves many concurrent workloads that contend for the same WAN
// links, compute-node pools and funcX endpoints. The orchestrator
// accepts a list of CampaignSpecs (site pair, transfer mode,
// inventory, priority, submit time) and runs them as event-driven
// processes on one sim::Engine over shared resources:
//
//   * WAN routes are FairShareChannels — concurrent transfers on the
//     same route split the link max-min fairly (GlobusService);
//   * each site's compute nodes are one BatchScheduler pool —
//     compression/decompression jobs queue for shared capacity, with
//     campaign priority deciding queue order;
//   * each site's funcX endpoint keeps one warm-container pool — the
//     first campaign pays the cold start, later ones run warm.
//
// A single campaign on an idle system reproduces the closed-form
// numbers of the original one-shot model exactly, so run_campaign()
// in core/campaign is now just the N=1 special case of this engine.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "faas/funcx.hpp"
#include "scheduler/batch.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "sim/link_flap.hpp"
#include "transfer/globus.hpp"

namespace ocelot {

/// One workload for the orchestrator.
struct CampaignSpec {
  std::string name;             ///< report label; defaults to inventory.app
  FileInventory inventory;
  TransferMode mode = TransferMode::kCompressedGrouped;
  CampaignConfig config;        ///< site pair, node counts, ratio, rates
  double submit_time = 0.0;     ///< virtual time the campaign arrives
  int priority = 0;             ///< node-pool queue priority (higher first)
};

/// Per-campaign outcome: the classic report plus scheduling context.
struct CampaignOutcome {
  std::string name;
  TransferMode mode = TransferMode::kDirect;
  double submit_time = 0.0;
  double finish_time = 0.0;     ///< absolute virtual completion time
  int priority = 0;
  CampaignReport report;        ///< durations relative to submit_time
  /// Actual wire time divided by the uncontended estimate; 1.0 means
  /// the campaign never shared its route.
  double transfer_stretch = 1.0;
};

/// Aggregate per-route link statistics.
struct LinkUsage {
  double capacity_bps = 0.0;
  sim::ChannelStats stats;
};

/// Aggregate per-site node-pool statistics.
struct PoolUsage {
  int total_nodes = 0;
  SchedulerStats stats;
};

struct OrchestratorReport {
  std::vector<CampaignOutcome> campaigns;  ///< in add_campaign order
  double makespan = 0.0;                   ///< latest finish time
  std::map<std::string, LinkUsage> links;
  std::map<std::string, PoolUsage> pools;
  std::uint64_t faas_cold_starts = 0;
  std::uint64_t faas_warm_hits = 0;
  std::uint64_t events_executed = 0;
};

/// Deterministic, byte-stable rendering of a report (two runs of the
/// same scenario produce identical strings — the determinism contract).
std::string to_string(const OrchestratorReport& report);

/// FNV-1a hash of the byte-stable rendering: a compact final-state
/// fingerprint for determinism checks at fleet scale.
std::uint64_t fingerprint(const OrchestratorReport& report);

struct OrchestratorOptions {
  /// Node-pool size per site; sites not listed use the Table III
  /// machine size from site_catalog().
  std::map<std::string, int> pool_nodes;
  /// GridFTP endpoint-pair tuning shared by all campaigns.
  EndpointSettings endpoint_settings;
};

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorOptions options = {});
  ~Orchestrator();

  /// Ambient queueing delay for `site`'s node pool (default: immediate).
  /// Must be called before run().
  void set_site_wait_model(const std::string& site,
                           std::unique_ptr<WaitModel> model);

  /// Validates and registers a campaign; returns its index.
  std::size_t add_campaign(CampaignSpec spec);

  /// Registers a seeded bandwidth-flap injector on the src->dst WAN
  /// route. The injector starts with run() and stops once every
  /// campaign has finished (so the event queue drains).
  void add_link_flap(const std::string& src, const std::string& dst,
                     sim::LinkFlapConfig config);

  /// Runs every registered campaign to completion; single-shot.
  OrchestratorReport run();

  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Flap injectors created by run(), in add_link_flap order.
  [[nodiscard]] const std::vector<std::unique_ptr<sim::LinkFlap>>&
  link_flaps() const {
    return flaps_;
  }

 private:
  struct Runtime;

  [[nodiscard]] int pool_capacity(const std::string& site_name) const;
  BatchScheduler& pool_for(const std::string& site_name);
  void start_campaign(Runtime& rt);
  void start_compressed_leg(Runtime& rt);

  struct FlapSpec {
    std::string src;
    std::string dst;
    sim::LinkFlapConfig config;
  };

  OrchestratorOptions options_;
  sim::Engine engine_;
  std::unique_ptr<FuncXService> faas_;
  std::unique_ptr<GlobusService> globus_;
  std::map<std::string, std::unique_ptr<BatchScheduler>> pools_;
  std::map<std::string, std::unique_ptr<WaitModel>> wait_models_;
  std::vector<std::unique_ptr<Runtime>> campaigns_;
  std::vector<FlapSpec> flap_specs_;
  std::vector<std::unique_ptr<sim::LinkFlap>> flaps_;
  std::size_t live_campaigns_ = 0;
  bool ran_ = false;
};

/// Convenience: runs `specs` on a fresh orchestrator and returns the
/// report. `isolated=true` instead runs each campaign on its own
/// orchestrator (no contention) — the baseline for contention studies.
OrchestratorReport run_campaigns(std::vector<CampaignSpec> specs,
                                 bool isolated = false,
                                 OrchestratorOptions options = {});

}  // namespace ocelot
