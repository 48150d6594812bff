#include "faas/funcx.hpp"

namespace ocelot {

std::size_t FuncXService::add_endpoint(FuncXEndpointConfig config) {
  require(!config.name.empty(), "FuncXService: endpoint needs a name");
  endpoints_.push_back(EndpointState{std::move(config), {}});
  return endpoints_.size() - 1;
}

std::size_t FuncXService::acquire_endpoint(const FuncXEndpointConfig& config) {
  require(!config.name.empty(), "FuncXService: endpoint needs a name");
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const FuncXEndpointConfig& existing = endpoints_[i].config;
    if (existing.name != config.name) continue;
    // Sharing an endpoint with different cost parameters would make
    // simulated timings depend on registration order; reject it.
    require(existing.dispatch_latency_s == config.dispatch_latency_s &&
                existing.cold_start_s == config.cold_start_s &&
                existing.warm_overhead_s == config.warm_overhead_s &&
                existing.batch_latency_s == config.batch_latency_s &&
                existing.max_warm_containers == config.max_warm_containers,
            "FuncXService: endpoint " + config.name +
                " already registered with a different config");
    return i;
  }
  return add_endpoint(config);
}

void FuncXService::register_function(const std::string& name) {
  require(!name.empty(), "FuncXService: function needs a name");
  functions_[name] = true;
}

FuncXService::EndpointState& FuncXService::endpoint_state(std::size_t id) {
  if (id >= endpoints_.size())
    throw NotFound("FuncXService: unknown endpoint id");
  return endpoints_[id];
}

const FuncXEndpointConfig& FuncXService::endpoint(std::size_t id) const {
  if (id >= endpoints_.size())
    throw NotFound("FuncXService: unknown endpoint id");
  return endpoints_[id].config;
}

void FuncXService::check_function(const std::string& function) const {
  if (functions_.find(function) == functions_.end())
    throw NotFound("FuncXService: unregistered function " + function);
}

double FuncXService::container_cost(EndpointState& ep,
                                    const std::string& function) {
  auto it = ep.warm.find(function);
  if (it != ep.warm.end()) {
    it->second = use_seq_++;  // refresh LRU position
    ++warm_hits_;
    return ep.config.warm_overhead_s;
  }
  // Cold start; the container stays warm afterwards. A bounded pool
  // evicts the least recently used container to make room.
  ++cold_starts_;
  ep.warm[function] = use_seq_++;
  const int max_warm = ep.config.max_warm_containers;
  if (max_warm > 0 &&
      ep.warm.size() > static_cast<std::size_t>(max_warm)) {
    auto lru = ep.warm.begin();
    for (auto jt = ep.warm.begin(); jt != ep.warm.end(); ++jt) {
      if (jt->second < lru->second) lru = jt;
    }
    ep.warm.erase(lru);
  }
  return ep.config.cold_start_s;
}

void FuncXService::submit(std::size_t endpoint, const std::string& function,
                          FuncXTask task) {
  check_function(function);
  EndpointState& ep = endpoint_state(endpoint);
  const double latency = ep.config.dispatch_latency_s +
                         container_cost(ep, function) + task.compute_seconds;
  auto cb = std::move(task.on_complete);
  sim_.schedule_in(latency, [this, cb = std::move(cb)]() mutable {
    ++completed_;
    if (cb) cb();
  });
}

void FuncXService::submit_batch(std::size_t endpoint,
                                const std::string& function,
                                std::vector<FuncXTask> tasks) {
  check_function(function);
  require(!tasks.empty(), "FuncXService: empty batch");
  EndpointState& ep = endpoint_state(endpoint);
  // Dispatch is paid once for the whole batch (executor batching);
  // the container warms once; tasks then run concurrently.
  const double base = ep.config.dispatch_latency_s +
                      container_cost(ep, function);
  double marginal = 0.0;
  for (auto& task : tasks) {
    marginal += ep.config.batch_latency_s;
    const double latency = base + marginal + task.compute_seconds;
    auto cb = std::move(task.on_complete);
    sim_.schedule_in(latency, [this, cb = std::move(cb)]() mutable {
      ++completed_;
      if (cb) cb();
    });
  }
}

}  // namespace ocelot
