#include "orchestrator/orchestrator.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "core/grouping.hpp"
#include "exec/cluster_model.hpp"
#include "netsim/sites.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

/// Per-campaign mutable state threaded through the event callbacks.
struct Orchestrator::Runtime {
  CampaignSpec spec;
  CampaignOutcome outcome;
  sim::ProcessHandle proc;

  LinkProfile link;
  double cp_seconds = 0.0;
  double dp_seconds = 0.0;
  std::vector<double> wire_files;
  std::size_t wire_count = 0;   ///< wire_files.size(), kept past the move
  double wire_bytes = 0.0;      ///< sum of wire_files, kept past the move
  std::shared_ptr<TransferTask> task;
};

Orchestrator::Orchestrator(OrchestratorOptions options)
    : options_(std::move(options)) {
  faas_ = std::make_unique<FuncXService>(engine_);
  globus_ =
      std::make_unique<GlobusService>(engine_, options_.endpoint_settings);
  faas_->register_function("compress");
  faas_->register_function("decompress");
}

Orchestrator::~Orchestrator() = default;

void Orchestrator::set_site_wait_model(const std::string& site_name,
                                       std::unique_ptr<WaitModel> model) {
  require(model != nullptr, "Orchestrator: null wait model");
  require(pools_.find(site_name) == pools_.end(),
          "Orchestrator: wait model must be set before the pool is used");
  wait_models_[site_name] = std::move(model);
}

int Orchestrator::pool_capacity(const std::string& site_name) const {
  auto opt = options_.pool_nodes.find(site_name);
  if (opt != options_.pool_nodes.end()) return opt->second;
  return site(site_name).nodes;
}

BatchScheduler& Orchestrator::pool_for(const std::string& site_name) {
  auto it = pools_.find(site_name);
  if (it == pools_.end()) {
    const int nodes = pool_capacity(site_name);
    std::unique_ptr<WaitModel> wait;
    auto wm = wait_models_.find(site_name);
    if (wm != wait_models_.end()) {
      wait = std::move(wm->second);
      wait_models_.erase(wm);
    } else {
      wait = std::make_unique<ImmediateWait>();
    }
    it = pools_
             .emplace(site_name, std::make_unique<BatchScheduler>(
                                     engine_, nodes, std::move(wait)))
             .first;
  }
  return *it->second;
}

std::size_t Orchestrator::add_campaign(CampaignSpec spec) {
  require(!ran_, "Orchestrator: cannot add campaigns after run()");
  require(!spec.inventory.raw_bytes.empty(),
          "run_campaign: empty inventory");
  require(spec.config.compression_ratio >= 1.0,
          "run_campaign: compression ratio must be >= 1");
  require(spec.submit_time >= 0.0, "Orchestrator: negative submit time");
  require(spec.config.adaptive_overhead >= 0.0,
          "run_campaign: negative adaptive overhead");

  auto rt = std::make_unique<Runtime>();
  rt->spec = std::move(spec);
  if (rt->spec.name.empty()) rt->spec.name = rt->spec.inventory.app;
  rt->link = route(rt->spec.config.src, rt->spec.config.dst);

  if (rt->spec.mode != TransferMode::kDirect) {
    // Validate against prospective capacities without instantiating
    // the pools, so set_site_wait_model() stays usable until run().
    require(rt->spec.config.compress_nodes > 0 &&
                rt->spec.config.compress_nodes <=
                    pool_capacity(rt->spec.config.src),
            "Orchestrator: compress_nodes exceeds the source pool");
    require(rt->spec.config.decompress_nodes > 0 &&
                rt->spec.config.decompress_nodes <=
                    pool_capacity(rt->spec.config.dst),
            "Orchestrator: decompress_nodes exceeds the destination pool");
  }

  campaigns_.push_back(std::move(rt));
  return campaigns_.size() - 1;
}

void Orchestrator::add_link_flap(const std::string& src,
                                 const std::string& dst,
                                 sim::LinkFlapConfig config) {
  require(!ran_, "Orchestrator: cannot add link flaps after run()");
  route(src, dst);  // validates the route exists
  flap_specs_.push_back(FlapSpec{src, dst, config});
}

void Orchestrator::start_campaign(Runtime& rt) {
  rt.proc = engine_.spawn(rt.spec.name);
  rt.proc->on_exit([this] { --live_campaigns_; });
  CampaignReport& report = rt.outcome.report;
  report.mode = rt.spec.mode;

  if (rt.spec.mode == TransferMode::kDirect) {
    TransferRequest req{rt.spec.inventory.app + "/direct", rt.link,
                        rt.spec.inventory.raw_bytes};
    rt.task = globus_->submit(std::move(req), [this, &rt](const TransferTask& t) {
      CampaignReport& rep = rt.outcome.report;
      rep.transfer_seconds = t.actual_duration();
      rt.outcome.transfer_stretch =
          rep.transfer_seconds / t.estimate().duration_s;
      rep.files_transferred = rt.spec.inventory.file_count();
      rep.bytes_transferred = rt.spec.inventory.total_bytes();
      rep.effective_speed_bps =
          rep.bytes_transferred / rep.transfer_seconds;
      rep.total_seconds = rep.transfer_seconds;
      rt.proc->finish();
    });
    return;
  }
  start_compressed_leg(rt);
}

void Orchestrator::start_compressed_leg(Runtime& rt) {
  const CampaignConfig& config = rt.spec.config;
  const SiteSpec& src_site = site(config.src);
  const SiteSpec& dst_site = site(config.dst);

  std::vector<double> compressed(rt.spec.inventory.raw_bytes.size());
  for (std::size_t i = 0; i < compressed.size(); ++i) {
    compressed[i] =
        rt.spec.inventory.raw_bytes[i] / config.compression_ratio;
  }
  if (rt.spec.mode == TransferMode::kCompressedGrouped) {
    const GroupPlan plan = plan_groups_by_world_size(
        compressed.size(), config.group_world_size);
    rt.wire_files = group_sizes(plan, compressed);
  } else {
    rt.wire_files = std::move(compressed);
  }
  rt.wire_count = rt.wire_files.size();
  rt.wire_bytes = std::accumulate(rt.wire_files.begin(),
                                  rt.wire_files.end(), 0.0);

  rt.cp_seconds = cluster_compress_seconds(
      rt.spec.inventory.raw_bytes, config.compress_nodes,
      config.compress_cores_per_node, config.rates, src_site.fs,
      config.block_bytes);
  // The online advisor samples features and runs calibration probes
  // inside the compression stage; charge its measured overhead there.
  if (config.adaptive) rt.cp_seconds *= 1.0 + config.adaptive_overhead;
  rt.dp_seconds = cluster_decompress_seconds(
      rt.spec.inventory.raw_bytes, config.decompress_nodes,
      config.decompress_cores_per_node, config.rates, dst_site.fs,
      config.block_bytes);

  FuncXEndpointConfig src_faas = config.faas;
  if (src_faas.name.empty()) src_faas.name = config.src + "-ep";
  FuncXEndpointConfig dst_faas = config.faas;
  if (dst_faas.name.empty()) dst_faas.name = config.dst + "-ep";
  const std::size_t src_ep = faas_->acquire_endpoint(src_faas);
  const std::size_t dst_ep = faas_->acquire_endpoint(dst_faas);

  // The event chain: queue for source nodes -> funcX-dispatched
  // compression -> shared-WAN transfer -> queue for destination nodes
  // -> funcX-dispatched decompression.
  pool_for(config.src).submit(
      config.compress_nodes,
      [this, &rt, src_ep, dst_ep, dst_pool = &pool_for(config.dst)](
          const Allocation& alloc) {
        CampaignReport& rep = rt.outcome.report;
        rep.node_wait_seconds += alloc.granted_at - rt.spec.submit_time;
        FuncXTask compress_task;
        compress_task.compute_seconds = rt.cp_seconds;
        compress_task.on_complete = [this, &rt, alloc, dst_ep, dst_pool] {
          pool_for(rt.spec.config.src).release(alloc);
          // wire_files moves onto the wire; the report reads the
          // precomputed wire_count/wire_bytes instead.
          TransferRequest req{rt.spec.inventory.app + "/compressed",
                              rt.link, std::move(rt.wire_files)};
          rt.task = globus_->submit(std::move(req),
                                    [this, &rt, dst_ep, dst_pool](
                                             const TransferTask& t) {
            CampaignReport& rep = rt.outcome.report;
            rep.transfer_seconds = t.actual_duration();
            rt.outcome.transfer_stretch =
                rep.transfer_seconds / t.estimate().duration_s;
            const double before_dst_queue = engine_.now();
            dst_pool->submit(
                rt.spec.config.decompress_nodes,
                [this, &rt, dst_ep, dst_pool,
                 before_dst_queue](const Allocation& dalloc) {
                  rt.outcome.report.node_wait_seconds +=
                      dalloc.granted_at - before_dst_queue;
                  FuncXTask decompress_task;
                  decompress_task.compute_seconds = rt.dp_seconds;
                  decompress_task.on_complete = [this, &rt, dalloc,
                                                 dst_pool] {
                    dst_pool->release(dalloc);
                    CampaignReport& rep = rt.outcome.report;
                    rep.compress_seconds = rt.cp_seconds;
                    rep.decompress_seconds = rt.dp_seconds;
                    rep.files_transferred = rt.wire_count;
                    rep.bytes_transferred = rt.wire_bytes;
                    rep.effective_speed_bps =
                        rep.bytes_transferred / rep.transfer_seconds;
                    rep.total_seconds =
                        engine_.now() - rt.spec.submit_time;
                    rep.orchestration_seconds =
                        rep.total_seconds - rep.compress_seconds -
                        rep.transfer_seconds - rep.decompress_seconds -
                        rep.node_wait_seconds;
                    rt.proc->finish();
                  };
                  faas_->submit(dst_ep, "decompress",
                                std::move(decompress_task));
                },
                rt.spec.priority);
          });
        };
        faas_->submit(src_ep, "compress", std::move(compress_task));
      },
      rt.spec.priority);
}

OrchestratorReport Orchestrator::run() {
  require(!ran_, "Orchestrator: run() is single-shot");
  ran_ = true;
  require(!campaigns_.empty(), "Orchestrator: no campaigns");

  // Deterministic arrival order: by (submit time, priority desc,
  // registration order).
  std::vector<std::size_t> order(campaigns_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const CampaignSpec& sa = campaigns_[a]->spec;
    const CampaignSpec& sb = campaigns_[b]->spec;
    if (sa.submit_time != sb.submit_time)
      return sa.submit_time < sb.submit_time;
    if (sa.priority != sb.priority) return sa.priority > sb.priority;
    return a < b;
  });
  for (const std::size_t i : order) {
    Runtime* rt = campaigns_[i].get();
    engine_.schedule_at(rt->spec.submit_time,
                        [this, rt] { start_campaign(*rt); });
  }

  live_campaigns_ = campaigns_.size();
  for (const FlapSpec& spec : flap_specs_) {
    sim::FairShareChannel& channel =
        globus_->channel_for(route(spec.src, spec.dst));
    flaps_.push_back(std::make_unique<sim::LinkFlap>(
        engine_, channel, spec.config,
        [this] { return live_campaigns_ > 0; }));
    flaps_.back()->start();
  }

  engine_.run();

  OrchestratorReport report;
  report.campaigns.reserve(campaigns_.size());
  for (const auto& rt : campaigns_) {
    if (rt->proc == nullptr || rt->proc->running()) {
      // Assemble the message only on the failure path; the happy path
      // across thousands of campaigns must not allocate per check.
      require(false,
              "Orchestrator: campaign never completed: " + rt->spec.name);
    }
    CampaignOutcome outcome = rt->outcome;
    outcome.name = rt->spec.name;
    outcome.mode = rt->spec.mode;
    outcome.submit_time = rt->spec.submit_time;
    outcome.priority = rt->spec.priority;
    outcome.finish_time = rt->proc->exited_at();
    report.makespan = std::max(report.makespan, outcome.finish_time);
    report.campaigns.push_back(std::move(outcome));
  }
  if (obs::tracing_enabled()) {
    // Replay each campaign onto the virtual timeline: one track per
    // campaign, a covering span plus its serialized legs. The legs
    // actually interleave with queueing inside the sim, so this is
    // the report's sequential decomposition, not an event-exact
    // replay — but it lines campaigns up against each other exactly.
    for (const CampaignOutcome& o : report.campaigns) {
      obs::emit_sim_span(o.name, "campaign", o.submit_time, o.finish_time);
      double at = o.submit_time;
      const auto leg = [&](const char* name, double seconds) {
        if (seconds <= 0.0) return;
        obs::emit_sim_span(o.name, name, at, at + seconds);
        at += seconds;
      };
      leg("node_wait", o.report.node_wait_seconds);
      leg("compress", o.report.compress_seconds);
      leg("transfer", o.report.transfer_seconds);
      leg("decompress", o.report.decompress_seconds);
    }
  }
  for (const auto& [name, channel] : globus_->channels()) {
    report.links.emplace(name,
                         LinkUsage{channel->capacity(), channel->stats()});
  }
  for (const auto& [name, pool] : pools_) {
    report.pools.emplace(name,
                         PoolUsage{pool->total_nodes(), pool->stats()});
  }
  report.faas_cold_starts = faas_->cold_starts();
  report.faas_warm_hits = faas_->warm_hits();
  report.events_executed = engine_.executed_events();
  return report;
}

std::string to_string(const OrchestratorReport& report) {
  std::string out;
  out += "campaigns " + std::to_string(report.campaigns.size()) +
         " makespan " + fmt(report.makespan) + "\n";
  for (const CampaignOutcome& c : report.campaigns) {
    const CampaignReport& r = c.report;
    out += "campaign " + c.name + " mode " + to_string(c.mode) +
           " submit " + fmt(c.submit_time) + " prio " +
           std::to_string(c.priority) + "\n";
    out += "  total " + fmt(r.total_seconds) + " transfer " +
           fmt(r.transfer_seconds) + " cp " + fmt(r.compress_seconds) +
           " dp " + fmt(r.decompress_seconds) + " orch " +
           fmt(r.orchestration_seconds) + " wait " +
           fmt(r.node_wait_seconds) + "\n";
    out += "  files " + std::to_string(r.files_transferred) + " bytes " +
           fmt(r.bytes_transferred) + " speed " +
           fmt(r.effective_speed_bps) + " stretch " +
           fmt(c.transfer_stretch) + " finish " + fmt(c.finish_time) +
           "\n";
  }
  for (const auto& [name, link] : report.links) {
    out += "link " + name + " capacity " + fmt(link.capacity_bps) +
           " delivered " + fmt(link.stats.units_delivered) + " busy " +
           fmt(link.stats.busy_seconds) + " flow-seconds " +
           fmt(link.stats.flow_seconds) + " peak-flows " +
           std::to_string(link.stats.peak_flows) + " completed " +
           std::to_string(link.stats.flows_completed) + " cancelled " +
           std::to_string(link.stats.flows_cancelled) + "\n";
  }
  for (const auto& [name, pool] : report.pools) {
    out += "pool " + name + " nodes " + std::to_string(pool.total_nodes) +
           " grants " + std::to_string(pool.stats.grants) + " wait " +
           fmt(pool.stats.total_wait_seconds) + " node-seconds " +
           fmt(pool.stats.node_seconds) + " peak " +
           std::to_string(pool.stats.peak_nodes_in_use) + " queue-peak " +
           std::to_string(pool.stats.peak_queue_length) + "\n";
  }
  out += "faas cold " + std::to_string(report.faas_cold_starts) +
         " warm " + std::to_string(report.faas_warm_hits) + " events " +
         std::to_string(report.events_executed) + "\n";
  return out;
}

std::uint64_t fingerprint(const OrchestratorReport& report) {
  const std::string bytes = to_string(report);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

OrchestratorReport run_campaigns(std::vector<CampaignSpec> specs,
                                 bool isolated,
                                 OrchestratorOptions options) {
  if (!isolated) {
    Orchestrator orch(options);
    for (auto& spec : specs) orch.add_campaign(std::move(spec));
    return orch.run();
  }
  OrchestratorReport merged;
  for (auto& spec : specs) {
    Orchestrator orch(options);
    orch.add_campaign(std::move(spec));
    OrchestratorReport one = orch.run();
    merged.makespan = std::max(merged.makespan, one.makespan);
    merged.campaigns.push_back(std::move(one.campaigns.front()));
    for (auto& [name, link] : one.links) {
      LinkUsage& agg = merged.links[name];
      agg.capacity_bps = link.capacity_bps;
      agg.stats.units_delivered += link.stats.units_delivered;
      agg.stats.busy_seconds += link.stats.busy_seconds;
      agg.stats.flow_seconds += link.stats.flow_seconds;
      agg.stats.peak_flows =
          std::max(agg.stats.peak_flows, link.stats.peak_flows);
      agg.stats.flows_opened += link.stats.flows_opened;
      agg.stats.flows_completed += link.stats.flows_completed;
      agg.stats.flows_cancelled += link.stats.flows_cancelled;
    }
    for (auto& [name, pool] : one.pools) {
      PoolUsage& agg = merged.pools[name];
      agg.total_nodes = pool.total_nodes;
      agg.stats.grants += pool.stats.grants;
      agg.stats.total_wait_seconds += pool.stats.total_wait_seconds;
      agg.stats.node_seconds += pool.stats.node_seconds;
      agg.stats.peak_nodes_in_use = std::max(
          agg.stats.peak_nodes_in_use, pool.stats.peak_nodes_in_use);
      agg.stats.peak_queue_length = std::max(
          agg.stats.peak_queue_length, pool.stats.peak_queue_length);
    }
    merged.faas_cold_starts += one.faas_cold_starts;
    merged.faas_warm_hits += one.faas_warm_hits;
    merged.events_executed += one.events_executed;
  }
  return merged;
}

}  // namespace ocelot
