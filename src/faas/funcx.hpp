#pragma once
// Federated FaaS simulation (funcX, Section III-C).
//
// Ocelot orchestrates remote compression/decompression through a
// funcX-style service: functions are registered centrally, endpoints
// run on the target machines, and each invocation pays a cloud
// dispatch latency plus a container cost (cold start on first use of a
// function at an endpoint, warm afterwards — the paper's "container
// warming" optimization). Batched submission amortizes dispatch
// across many tasks ("executor/user batching").

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/inline_function.hpp"
#include "sim/engine.hpp"

namespace ocelot {

/// Endpoint-side cost parameters.
struct FuncXEndpointConfig {
  std::string name;
  double dispatch_latency_s = 0.12;   ///< user -> cloud -> endpoint hop
  double cold_start_s = 2.5;          ///< container instantiation
  double warm_overhead_s = 0.01;      ///< per-task overhead when warm
  double batch_latency_s = 0.02;      ///< marginal dispatch per batched task
  /// Warm-container pool size: how many distinct functions stay warm
  /// at once (0 = unbounded). When the pool overflows, the least
  /// recently used container is evicted and its next invocation pays a
  /// cold start again.
  int max_warm_containers = 0;
};

/// One function invocation: modelled compute time plus a completion
/// callback run in virtual time.
struct FuncXTask {
  double compute_seconds = 0.0;
  InlineFunction<void(), 64> on_complete;
};

/// Central service: function registry plus per-endpoint container state.
class FuncXService {
 public:
  explicit FuncXService(sim::Engine& sim) : sim_(sim) {}

  /// Registers an endpoint; returns its id.
  std::size_t add_endpoint(FuncXEndpointConfig config);

  /// Idempotent registration: returns the existing endpoint with the
  /// same name if one is registered, else adds `config`. This is how
  /// concurrent campaigns share one warm-container pool per site.
  std::size_t acquire_endpoint(const FuncXEndpointConfig& config);

  /// Registers a function body by name (idempotent).
  void register_function(const std::string& name);

  /// Submits one task; completion fires after dispatch + container +
  /// compute time. Throws NotFound for unknown endpoint/function.
  void submit(std::size_t endpoint, const std::string& function,
              FuncXTask task);

  /// Submits a batch: dispatch latency is paid once plus a small
  /// marginal cost per task; tasks run concurrently on the endpoint.
  void submit_batch(std::size_t endpoint, const std::string& function,
                    std::vector<FuncXTask> tasks);

  [[nodiscard]] std::uint64_t completed_tasks() const { return completed_; }
  [[nodiscard]] const FuncXEndpointConfig& endpoint(std::size_t id) const;

  /// Container-pool counters across all endpoints.
  [[nodiscard]] std::uint64_t cold_starts() const { return cold_starts_; }
  [[nodiscard]] std::uint64_t warm_hits() const { return warm_hits_; }

 private:
  struct EndpointState {
    FuncXEndpointConfig config;
    /// function -> last-use sequence number; present iff warm.
    std::map<std::string, std::uint64_t> warm;
  };

  double container_cost(EndpointState& ep, const std::string& function);
  EndpointState& endpoint_state(std::size_t id);
  void check_function(const std::string& function) const;

  sim::Engine& sim_;
  std::vector<EndpointState> endpoints_;
  std::map<std::string, bool> functions_;
  std::uint64_t completed_ = 0;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t warm_hits_ = 0;
  std::uint64_t use_seq_ = 0;
};

}  // namespace ocelot
