#pragma once
// Binary-heap event queue: the test-only oracle for sim::EventQueue.
//
// This is the engine's original scheduler — a binary min-heap over
// (time, seq) with lazily deleted cancellations, threshold-triggered
// compaction and one shared per-event record — kept out of libocelot
// so production has exactly one queue. The differential test
// (tests/test_event_queue.cpp) replays seeded op scripts against both
// queues and requires identical pop sequences, and bench_sim_scaling
// times the calendar queue against it on the sim's op mix.
//
// It exposes the same surface EventQueue does (push/next_time/empty/
// live/pop/physical_entries/purges, a nested Handle with
// active()/cancel()), so tests and benches can be written once as
// templates over the queue type.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/event.hpp"

namespace ocelot::sim {

class HeapQueue {
 public:
  using Callback = detail::EventCallback;

 private:
  struct Counters {
    std::size_t live = 0;
  };
  struct State {
    bool cancelled = false;
    bool fired = false;
    std::weak_ptr<Counters> counters;
    Callback cb;
  };

 public:
  /// Cancellable handle over one shared per-event record.
  class Handle {
   public:
    Handle() = default;

    [[nodiscard]] bool active() const {
      return state_ && !state_->cancelled && !state_->fired;
    }

    bool cancel() {
      if (!active()) return false;
      state_->cancelled = true;
      state_->cb = nullptr;  // free captures immediately
      if (auto counters = state_->counters.lock()) --counters->live;
      return true;
    }

   private:
    friend class HeapQueue;
    explicit Handle(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  HeapQueue() : counters_(std::make_shared<Counters>()) {}

  /// Enqueues `cb` at virtual time `time`, numbered in push order.
  Handle push(double time, Callback cb) {
    require(std::isfinite(time), "HeapQueue: event time must be finite");
    auto state = std::make_shared<State>();
    state->counters = counters_;
    state->cb = std::move(cb);
    ++counters_->live;
    heap_.push_back(Entry{time, seq_++, state});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    maybe_compact();
    return Handle(std::move(state));
  }

  /// Earliest live event time; only valid when !empty().
  [[nodiscard]] double next_time() {
    drop_cancelled();
    return heap_.front().time;
  }

  [[nodiscard]] bool empty() {
    drop_cancelled();
    return heap_.empty();
  }

  [[nodiscard]] std::size_t live() const { return counters_->live; }

  /// Pops the earliest live event; only valid when !empty().
  std::pair<double, Callback> pop() {
    drop_cancelled();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    entry.state->fired = true;
    --counters_->live;
    maybe_compact();
    return {entry.time, std::move(entry.state->cb)};
  }

  [[nodiscard]] std::size_t physical_entries() const { return heap_.size(); }
  /// Tombstone compactions performed.
  [[nodiscard]] std::uint64_t purges() const { return purges_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::shared_ptr<State> state;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() && heap_.front().state->cancelled) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }

  /// Sweeps every tombstone once cancelled entries outnumber live
  /// ones, keeping memory O(live) under schedule/cancel churn.
  void maybe_compact() {
    if (heap_.size() < 64 || heap_.size() <= 2 * counters_->live) return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [](const Entry& e) {
                                 return e.state->cancelled;
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++purges_;
  }

  std::vector<Entry> heap_;
  std::shared_ptr<Counters> counters_;
  std::uint64_t seq_ = 0;
  std::uint64_t purges_ = 0;
};

}  // namespace ocelot::sim
