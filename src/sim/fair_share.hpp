#pragma once
// Max-min fair sharing of a contended fluid resource.
//
// A FairShareChannel models one shared capacity (a WAN link's
// aggregate bandwidth) serving several concurrent flows. Each flow has
// a demand ceiling (the most it could use alone, e.g. the GridFTP
// effective bandwidth for its file mix) and a fixed amount of work
// measured in *solo-service seconds*: the virtual time the flow would
// need with its full demand. The channel allocates capacity max-min
// fairly, so a flow progresses at fraction allocation/demand of solo
// speed — exactly 1.0 when it has the channel to itself, which is what
// keeps single-campaign results identical to the closed-form model.
//
// The channel is event-driven: every flow arrival, departure,
// cancellation or capacity change reallocates rates and reschedules
// the next completion (a cancellable engine event). Per-flow rate
// history is kept so callers can invert progress ("when had this flow
// delivered s seconds of service?") — the sentinel uses that to learn
// which files already moved when it cancels a transfer mid-flight.
//
// Fleet scale: the channel maintains flows in a sorted (demand, id)
// structure across add/remove, so each reallocation is a single
// allocation-free sequential pass instead of a fresh sort + scratch
// vectors. The floating-point operations are performed in exactly the
// order of max_min_allocation, so rates are bit-identical to that
// oracle (tests/test_sim_engine.cpp checks it with exact equality).
// Same-timestamp rate updates are batched into a single rate segment.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "common/pool_alloc.hpp"
#include "sim/engine.hpp"

namespace ocelot::sim {

/// Max-min fair allocation of `capacity` across `demands` (all > 0):
/// repeatedly satisfies the smallest unmet demand and splits the rest.
std::vector<double> max_min_allocation(double capacity,
                                       std::span<const double> demands);

/// Aggregate counters for one channel, integrated in virtual time.
struct ChannelStats {
  double units_delivered = 0.0;  ///< sum of flows' served stat_units
  double busy_seconds = 0.0;     ///< time with at least one active flow
  double flow_seconds = 0.0;     ///< integral of concurrent-flow count
  std::size_t peak_flows = 0;
  std::uint64_t flows_opened = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_cancelled = 0;
};

class FairShareChannel {
 public:
  using FlowId = std::uint64_t;
  /// Flow-completion callback; sized like the engine's event callbacks
  /// so typical captures stay allocation-free.
  using FlowCallback = InlineFunction<void(), 128>;
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  FairShareChannel(Engine& engine, std::string name, double capacity);

  /// Starts a flow needing `work_seconds` of solo service at demand
  /// `demand` capacity-units/s. `on_complete` fires at the virtual
  /// time the work finishes (not on cancellation). `stat_units` is
  /// what the flow contributes to stats().units_delivered when fully
  /// served (e.g. its payload bytes); defaults to demand * work.
  FlowId open_flow(double demand, double work_seconds,
                   FlowCallback on_complete, double stat_units = -1.0);

  /// Stops a flow mid-service; progress freezes at the current time.
  void cancel_flow(FlowId id);

  /// Changes the channel's total capacity at the current virtual time
  /// (e.g. a link degrading or recovering); rates reallocate at once.
  void set_capacity(double capacity);

  /// Solo-service seconds delivered to `id` by wall time `t`.
  [[nodiscard]] double progress_at(FlowId id, double t) const;

  /// Wall time at which cumulative solo-service `s` was delivered to
  /// `id`; kNever if the flow ended before reaching `s`.
  [[nodiscard]] double delivery_time(FlowId id, double s) const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double capacity() const { return capacity_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

 private:
  /// One constant-rate stretch of a flow's service history.
  struct Segment {
    double wall;      ///< wall time the stretch began
    double service;   ///< cumulative service at that time
    double fraction;  ///< progress rate (allocation / demand)
  };
  using SegmentVec = std::vector<Segment, PoolAllocator<Segment>>;

  /// Per-flow state touched on every reallocation and progress sync,
  /// split out of Flow into a dense 40-byte array so the O(active)
  /// passes stream through a few KB instead of striding over the
  /// callback- and history-bearing cold records.
  struct Hot {
    double demand = 0.0;
    double work = 0.0;
    double stat_rate = 0.0;   ///< stat units per service-second
    double progress = 0.0;
    /// Mirrors segments.back().fraction; -1 before the first
    /// allocation so the first apply always records a segment.
    double fraction = -1.0;
  };

  /// Cold per-flow state: lifecycle bookkeeping and the completion
  /// callback, touched only at open/close and on queries. The rate
  /// history lives in segments_ (parallel to flows_) so the per-
  /// reallocation segment appends stride over dense vector headers
  /// instead of these callback-bearing records.
  struct Flow {
    double opened_at = 0.0;
    double closed_at = kNever;
    bool active = true;
    bool completed = false;
    FlowCallback on_complete;
  };

  const Flow& flow_ref(FlowId id) const;
  const Hot& hot_ref(FlowId id) const;
  /// Advances all active flows' progress (and the stats integrals) to
  /// the current virtual time.
  void sync_progress();
  /// Recomputes fair-share rates and reschedules the next completion.
  void reallocate();
  /// Records `fraction` for flow `id` at `now` (batching
  /// same-timestamp updates into one segment) and folds its finish
  /// time into `earliest`. Touches the cold record only when the
  /// fraction actually changed.
  void apply_fraction(FlowId id, double fraction, double now,
                      double& earliest);
  /// Drops `id` from active_ and from the sorted demand structure.
  void remove_active(FlowId id, double demand);
  void on_completion_event();

  Engine& engine_;
  std::string name_;
  double capacity_;
  std::vector<Hot> hot_;        ///< indexed by FlowId; dense hot state
  std::vector<Flow> flows_;     ///< indexed by FlowId
  std::vector<SegmentVec> segments_;  ///< indexed by FlowId; rate history
  std::vector<FlowId> active_;  ///< ascending ids (insertion order)
  /// Active flows sorted ascending by (demand, id) — maintained across
  /// add/remove so reallocation is one sequential pass.
  std::vector<std::pair<double, FlowId>> sorted_;
  std::vector<FlowId> done_scratch_;
  std::vector<FlowCallback> callbacks_scratch_;
  EventHandle next_completion_;
  double last_update_ = 0.0;
  ChannelStats stats_;
};

}  // namespace ocelot::sim
