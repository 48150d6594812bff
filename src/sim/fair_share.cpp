#include "sim/fair_share.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot::sim {

namespace {

/// Slack for floating-point completion checks, relative to `scale`.
double eps_for(double scale) { return 1e-9 * (1.0 + std::abs(scale)); }

}  // namespace

std::vector<double> max_min_allocation(double capacity,
                                       std::span<const double> demands) {
  require(capacity > 0.0, "max_min_allocation: capacity must be positive");
  std::vector<double> alloc(demands.size(), 0.0);
  if (demands.empty()) return alloc;

  // Process demands smallest-first: each round either satisfies the
  // smallest unmet demand or splits what is left evenly.
  std::vector<std::size_t> order(demands.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (demands[a] != demands[b]) return demands[a] < demands[b];
    return a < b;
  });

  double remaining = capacity;
  std::size_t unmet = demands.size();
  for (const std::size_t i : order) {
    require(demands[i] > 0.0, "max_min_allocation: demands must be positive");
    const double fair = remaining / static_cast<double>(unmet);
    alloc[i] = std::min(demands[i], fair);
    remaining -= alloc[i];
    --unmet;
  }
  return alloc;
}

FairShareChannel::FairShareChannel(Engine& engine, std::string name,
                                   double capacity)
    : engine_(engine), name_(std::move(name)), capacity_(capacity),
      last_update_(engine.now()) {
  require(capacity > 0.0, "FairShareChannel: capacity must be positive");
}

FairShareChannel::FlowId FairShareChannel::open_flow(double demand,
                                                     double work_seconds,
                                                     FlowCallback on_complete,
                                                     double stat_units) {
  require(demand > 0.0, "FairShareChannel: demand must be positive");
  require(work_seconds >= 0.0, "FairShareChannel: negative work");
  sync_progress();

  if (stat_units < 0.0) stat_units = demand * work_seconds;
  const FlowId id = flows_.size();
  Flow& flow = flows_.emplace_back();
  segments_.emplace_back(PoolAllocator<Segment>(engine_.object_pool()));
  Hot& hot = hot_.emplace_back();
  hot.demand = demand;
  hot.work = work_seconds;
  hot.stat_rate = work_seconds > 0.0 ? stat_units / work_seconds : 0.0;
  flow.opened_at = engine_.now();
  flow.on_complete = std::move(on_complete);
  active_.push_back(id);
  sorted_.insert(
      std::upper_bound(sorted_.begin(), sorted_.end(),
                       std::make_pair(demand, id)),
      std::make_pair(demand, id));
  ++stats_.flows_opened;
  stats_.peak_flows = std::max(stats_.peak_flows, active_.size());

  reallocate();
  return id;
}

void FairShareChannel::cancel_flow(FlowId id) {
  require(id < flows_.size(), "FairShareChannel: unknown flow");
  Flow& flow = flows_[id];
  if (!flow.active) return;
  sync_progress();
  flow.active = false;
  flow.closed_at = engine_.now();
  // The completion callback will never fire; drop it now so whatever
  // it captures (e.g. the cancelled transfer task) can be freed.
  flow.on_complete = nullptr;
  remove_active(id, hot_[id].demand);
  ++stats_.flows_cancelled;
  reallocate();
}

void FairShareChannel::set_capacity(double capacity) {
  require(capacity > 0.0, "FairShareChannel: capacity must be positive");
  if (capacity == capacity_) return;
  sync_progress();
  capacity_ = capacity;
  reallocate();
}

bool FairShareChannel::flow_active(FlowId id) const {
  return flow_ref(id).active;
}

const FairShareChannel::Flow& FairShareChannel::flow_ref(FlowId id) const {
  require(id < flows_.size(), "FairShareChannel: unknown flow");
  return flows_[id];
}

const FairShareChannel::Hot& FairShareChannel::hot_ref(FlowId id) const {
  require(id < hot_.size(), "FairShareChannel: unknown flow");
  return hot_[id];
}

double FairShareChannel::progress_at(FlowId id, double t) const {
  const Flow& flow = flow_ref(id);
  const SegmentVec& segments = segments_[id];
  if (t <= flow.opened_at || segments.empty()) return 0.0;
  const double horizon = std::min(t, flow.closed_at);
  double progress = 0.0;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const Segment& seg = segments[k];
    if (seg.wall >= horizon) break;
    const double seg_end =
        (k + 1 < segments.size()) ? segments[k + 1].wall : horizon;
    const double dt = std::min(horizon, seg_end) - seg.wall;
    progress = seg.service + seg.fraction * std::max(0.0, dt);
  }
  // An active flow may have progressed past the last sync point, but
  // never past its total work.
  return std::min(progress, hot_ref(id).work);
}

double FairShareChannel::delivery_time(FlowId id, double s) const {
  const Flow& flow = flow_ref(id);
  const Hot& hot = hot_ref(id);
  if (s <= 0.0) return flow.opened_at;
  const double eps = eps_for(hot.work);
  // Service the flow ever receives: all of it while active or once
  // completed; frozen at the cancellation point otherwise. An active
  // flow's last segment extrapolates at the current rate.
  const double ceiling =
      (flow.active || flow.completed) ? hot.work : hot.progress;
  if (s > ceiling + eps) return kNever;
  const SegmentVec& segments = segments_[id];
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const Segment& seg = segments[k];
    const double seg_service_end =
        (k + 1 < segments.size()) ? segments[k + 1].service : ceiling;
    if (s <= seg_service_end + eps || k + 1 == segments.size()) {
      if (seg.fraction <= 0.0) return seg.wall;
      const double wall = seg.wall + (s - seg.service) / seg.fraction;
      return std::min(wall, flow.closed_at);
    }
  }
  return kNever;
}

void FairShareChannel::sync_progress() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    double rate_units = 0.0;
    for (const FlowId id : active_) {
      Hot& hot = hot_[id];
      hot.progress = std::min(hot.work, hot.progress + hot.fraction * dt);
      rate_units += hot.fraction * hot.stat_rate;
    }
    stats_.units_delivered += rate_units * dt;
    stats_.flow_seconds += static_cast<double>(active_.size()) * dt;
    if (!active_.empty()) stats_.busy_seconds += dt;
  }
  last_update_ = now;
}

void FairShareChannel::apply_fraction(FlowId id, double fraction, double now,
                                      double& earliest) {
  Hot& hot = hot_[id];
  // hot.fraction mirrors segments.back().fraction (and is -1 while the
  // history is empty), so an unchanged rate skips the cold record
  // entirely.
  if (hot.fraction != fraction) {
    SegmentVec& segments = segments_[id];
    if (!segments.empty() && segments.back().wall == now) {
      // Batch same-timestamp rate updates: no virtual time has passed
      // since the last segment began, so overwrite its rate in place
      // instead of accumulating zero-width segments.
      segments.back().fraction = fraction;
    } else {
      segments.push_back(Segment{now, hot.progress, fraction});
    }
    hot.fraction = fraction;
  }
  const double remaining = hot.work - hot.progress;
  const double finish = remaining <= 0.0 ? now : now + remaining / fraction;
  earliest = std::min(earliest, finish);
}

void FairShareChannel::remove_active(FlowId id, double demand) {
  active_.erase(std::find(active_.begin(), active_.end(), id));
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                   std::make_pair(demand, id));
  // The exact (demand, id) pair was inserted at open_flow, so the
  // search always lands on it.
  sorted_.erase(it);
}

void FairShareChannel::reallocate() {
  const double now = engine_.now();
  ++reallocs_;
  OCELOT_COUNT("sim.fairshare.reallocs", 1);
  OCELOT_HIST("sim.fairshare.flows", static_cast<double>(active_.size()));

  // sorted_ already holds (demand, id) ascending — the same order
  // max_min_allocation sorts into (ids ascend in active_-position
  // order) — so one sequential pass performs the identical
  // floating-point operations and yields bit-identical rates with zero
  // allocations.
  double earliest = kNever;
  double remaining = capacity_;
  std::size_t unmet = sorted_.size();
  for (const auto& [demand, id] : sorted_) {
    const double fair = remaining / static_cast<double>(unmet);
    const double alloc = std::min(demand, fair);
    remaining -= alloc;
    --unmet;
    apply_fraction(id, alloc / demand, now, earliest);
  }

  next_completion_.cancel();
  if (earliest < kNever) {
    next_completion_ =
        engine_.schedule_at(earliest, [this] { on_completion_event(); });
  }
}

void FairShareChannel::on_completion_event() {
  sync_progress();
  // Collect every flow that has (numerically) finished, in id order —
  // ids are assigned monotonically, so this is deterministic.
  done_scratch_.clear();
  for (const FlowId id : active_) {
    const Hot& hot = hot_[id];
    if (hot.progress >= hot.work - eps_for(hot.work)) {
      done_scratch_.push_back(id);
    }
  }
  callbacks_scratch_.clear();
  for (const FlowId id : done_scratch_) {
    Hot& hot = hot_[id];
    Flow& flow = flows_[id];
    hot.progress = hot.work;  // pin exact completion
    flow.active = false;
    flow.completed = true;
    flow.closed_at = engine_.now();
    remove_active(id, hot.demand);
    ++stats_.flows_completed;
    if (flow.on_complete) {
      callbacks_scratch_.push_back(std::move(flow.on_complete));
    }
    flow.on_complete = nullptr;
  }
  reallocate();
  for (auto& cb : callbacks_scratch_) cb();
  callbacks_scratch_.clear();
}

}  // namespace ocelot::sim
