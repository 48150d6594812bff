#pragma once
// Batch-scheduler simulation (node waiting time, Section VII-B).
//
// Ocelot's sentinel exists because compute-node requests on shared
// clusters are not granted immediately: the paper observed 0-30 s when
// nodes were idle, and minutes to hours otherwise, with no quantifiable
// pattern. The scheduler model separates capacity (nodes held by jobs)
// from ambient queueing delay (other users), which a WaitModel supplies:
// immediate (Anvil in the paper's runs), trace-driven (tests), or
// stochastic (bimodal: usually short, occasionally very long).

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace ocelot {

/// Ambient queueing delay ahead of a job, in seconds of virtual time.
class WaitModel {
 public:
  virtual ~WaitModel() = default;
  virtual double next_wait_seconds() = 0;
};

/// Nodes are granted as soon as capacity allows (Anvil behaviour).
class ImmediateWait final : public WaitModel {
 public:
  double next_wait_seconds() override { return 0.0; }
};

/// Replays a fixed wait sequence; repeats the last entry when drained.
class TraceWait final : public WaitModel {
 public:
  explicit TraceWait(std::vector<double> waits) : waits_(std::move(waits)) {
    require(!waits_.empty(), "TraceWait: empty trace");
  }
  double next_wait_seconds() override {
    const double w = waits_[std::min(pos_, waits_.size() - 1)];
    ++pos_;
    return w;
  }

 private:
  std::vector<double> waits_;
  std::size_t pos_ = 0;
};

/// Bimodal wait: with probability `p_idle` a short uniform wait in
/// [0, short_max]; otherwise exponential with mean `long_mean`
/// (minutes-to-hours regime).
class StochasticWait final : public WaitModel {
 public:
  StochasticWait(std::uint64_t seed, double p_idle = 0.6,
                 double short_max = 30.0, double long_mean = 900.0)
      : rng_(seed), p_idle_(p_idle), short_max_(short_max),
        long_mean_(long_mean) {}

  double next_wait_seconds() override {
    if (rng_.chance(p_idle_)) return rng_.uniform(0.0, short_max_);
    return rng_.exponential(1.0 / long_mean_);
  }

 private:
  Rng rng_;
  double p_idle_;
  double short_max_;
  double long_mean_;
};

/// Handle to a granted allocation; release() returns the nodes.
class BatchScheduler;
struct Allocation {
  int nodes = 0;
  double granted_at = 0.0;
};

/// Utilization counters for one scheduler, integrated in virtual time.
struct SchedulerStats {
  std::uint64_t grants = 0;
  double total_wait_seconds = 0.0;  ///< sum of submit->grant latencies
  double node_seconds = 0.0;        ///< integral of nodes in use
  int peak_nodes_in_use = 0;
  std::size_t peak_queue_length = 0;
};

/// Capacity-constrained batch scheduler over a sim::Engine. Requests
/// are served in (priority desc, submission order) — plain FIFO when
/// every request carries the default priority. The head of the queue
/// blocks later requests (no backfill), matching the conservative
/// behaviour the paper's sentinel assumes.
class BatchScheduler {
 public:
  using GrantCallback = InlineFunction<void(const Allocation&), 64>;

  BatchScheduler(sim::Engine& sim, int total_nodes,
                 std::unique_ptr<WaitModel> wait_model)
      : sim_(sim), free_nodes_(total_nodes), total_nodes_(total_nodes),
        wait_(std::move(wait_model)) {
    require(total_nodes > 0, "BatchScheduler: need at least one node");
    require(wait_ != nullptr, "BatchScheduler: null wait model");
  }

  /// Queues a request for `nodes`; `on_grant` fires (in virtual time)
  /// after both the ambient wait and capacity are satisfied. Higher
  /// `priority` requests overtake lower ones still in the queue.
  void submit(int nodes, GrantCallback on_grant, int priority = 0);

  /// Returns an allocation's nodes to the pool, unblocking the queue.
  void release(const Allocation& alloc);

  [[nodiscard]] int free_nodes() const { return free_nodes_; }
  [[nodiscard]] int total_nodes() const { return total_nodes_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  /// Counters valid up to the current virtual time.
  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Pending {
    int nodes;
    int priority;
    double submitted_at;
    GrantCallback on_grant;
    bool wait_elapsed = false;
  };

  void try_dispatch();
  void account_usage();

  sim::Engine& sim_;
  int free_nodes_;
  int total_nodes_;
  std::unique_ptr<WaitModel> wait_;
  std::deque<std::shared_ptr<Pending>> queue_;
  SchedulerStats stats_;
  double last_usage_update_ = 0.0;
};

}  // namespace ocelot
