// Fleet-scale simulation tests: deterministic campaign-set generation,
// thousand-campaign fingerprint stability, pinned fleet fingerprints,
// and the LinkFlap failure-injection hook.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/campaigns.hpp"
#include "orchestrator/orchestrator.hpp"

namespace ocelot {
namespace {

OrchestratorReport run_fleet(std::size_t count, std::uint64_t seed) {
  CampaignSetConfig config;
  config.count = count;
  config.seed = seed;
  Orchestrator orch(fleet_pool_options());
  for (CampaignSpec& spec : generate_campaign_set(config)) {
    orch.add_campaign(std::move(spec));
  }
  return orch.run();
}

TEST(CampaignGenerator, SameSeedProducesIdenticalSpecs) {
  CampaignSetConfig config;
  config.count = 200;
  config.seed = 7;
  config.profile = "mixed";
  const auto a = generate_campaign_set(config);
  const auto b = generate_campaign_set(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].config.src, b[i].config.src);
    EXPECT_EQ(a[i].config.dst, b[i].config.dst);
    EXPECT_EQ(a[i].config.compression_ratio, b[i].config.compression_ratio);
    EXPECT_EQ(a[i].inventory.raw_bytes, b[i].inventory.raw_bytes);
  }
}

TEST(CampaignGenerator, DifferentSeedsDiverge) {
  CampaignSetConfig config;
  config.count = 50;
  config.seed = 1;
  const auto a = generate_campaign_set(config);
  config.seed = 2;
  const auto b = generate_campaign_set(config);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].submit_time != b[i].submit_time ||
        a[i].config.compression_ratio != b[i].config.compression_ratio) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(CampaignGenerator, CorridorProfilePinsTheRoute) {
  CampaignSetConfig config;
  config.count = 100;
  const auto specs = generate_campaign_set(config);
  ASSERT_EQ(specs.size(), 100u);
  for (const CampaignSpec& spec : specs) {
    EXPECT_EQ(spec.config.src, "Anvil");
    EXPECT_EQ(spec.config.dst, "Cori");
    EXPECT_FALSE(spec.inventory.raw_bytes.empty());
    EXPECT_GE(spec.config.compression_ratio, 4.0);
    EXPECT_LE(spec.config.compression_ratio, 16.0);
    EXPECT_GE(spec.submit_time, 0.0);
    EXPECT_LT(spec.submit_time, config.arrival_window_s);
  }
}

TEST(FleetSim, ThousandCampaignsAreDeterministic) {
  const auto first = run_fleet(1000, 42);
  const auto second = run_fleet(1000, 42);
  ASSERT_EQ(first.campaigns.size(), 1000u);
  EXPECT_EQ(fingerprint(first), fingerprint(second));
  EXPECT_EQ(to_string(first), to_string(second));
}

TEST(FleetSim, FingerprintsMatchPinnedValues) {
  // Pinned from the engine that still carried the binary-heap queue and
  // the full-recompute fair share: every heap/calendar x
  // reference/incremental combination printed these same values
  // (`ocelot simulate campaigns=N seed=S`), so a change to the queue,
  // the fair-share arithmetic or anything they schedule shows up here.
  struct Pinned {
    std::size_t campaigns;
    std::uint64_t seed;
    std::uint64_t fingerprint;
  };
  for (const Pinned& pin : {Pinned{1000, 42, 0xec0f26153e14ddb7ull},
                            Pinned{300, 9, 0x7c166fd8063acb57ull},
                            Pinned{300, 13, 0x75c8cf25281f121cull}}) {
    EXPECT_EQ(fingerprint(run_fleet(pin.campaigns, pin.seed)),
              pin.fingerprint)
        << "campaigns=" << pin.campaigns << " seed=" << pin.seed;
  }
}

TEST(FleetSim, LinkFlapSlowsTransfersDeterministically) {
  CampaignSetConfig config;
  config.count = 20;
  config.seed = 3;
  config.arrival_window_s = 10.0;

  const auto run_once = [&config](bool flap) {
    Orchestrator orch(fleet_pool_options());
    for (CampaignSpec& spec : generate_campaign_set(config)) {
      orch.add_campaign(std::move(spec));
    }
    if (flap) {
      sim::LinkFlapConfig flap_config;
      flap_config.seed = 99;
      flap_config.mean_up_seconds = 20.0;
      flap_config.mean_down_seconds = 20.0;
      flap_config.degraded_fraction = 0.05;
      orch.add_link_flap("Anvil", "Cori", flap_config);
    }
    return orch.run();
  };

  const auto baseline = run_once(false);
  const auto flapped = run_once(true);
  const auto flapped_again = run_once(true);

  // Severe, frequent degradation of the only WAN corridor must
  // lengthen the fleet makespan, and do so reproducibly.
  EXPECT_GT(flapped.makespan, baseline.makespan);
  EXPECT_EQ(to_string(flapped), to_string(flapped_again));
  EXPECT_EQ(fingerprint(flapped), fingerprint(flapped_again));
}

TEST(FleetSim, LinkFlapInjectorReportsTransitions) {
  CampaignSetConfig config;
  config.count = 10;
  config.seed = 5;
  config.arrival_window_s = 5.0;
  Orchestrator orch(fleet_pool_options());
  for (CampaignSpec& spec : generate_campaign_set(config)) {
    orch.add_campaign(std::move(spec));
  }
  sim::LinkFlapConfig flap_config;
  flap_config.seed = 7;
  flap_config.mean_up_seconds = 10.0;
  flap_config.mean_down_seconds = 5.0;
  flap_config.degraded_fraction = 0.25;
  orch.add_link_flap("Anvil", "Cori", flap_config);
  const auto report = orch.run();
  EXPECT_EQ(report.campaigns.size(), 10u);
  ASSERT_EQ(orch.link_flaps().size(), 1u);
  EXPECT_GT(orch.link_flaps()[0]->flaps(), 0u);
  // The injector must have shut itself down so the queue drained.
  EXPECT_FALSE(orch.link_flaps()[0]->degraded());
}

}  // namespace
}  // namespace ocelot
