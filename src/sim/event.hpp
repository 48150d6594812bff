#pragma once
// Cancellable event handles for the discrete-event engine.
//
// Every scheduled callback gets an EventHandle. Cancelling a handle
// before the event fires removes it from the logical queue (the entry
// is dropped lazily when it reaches the head, or eagerly by a purge);
// cancelling after it fired is a no-op. Handles are cheap to copy and
// may outlive the engine safely.
//
// The event lives in a slot of the queue's EventPool — a free-listed
// record array with generation counters, so scheduling allocates
// nothing in steady state. The handle holds (weak pool, slot,
// generation); a stale generation means the event already fired.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"

namespace ocelot::sim {

namespace detail {

/// Inline-storage budget for event callbacks: the deepest capture in
/// the repo (funcX completion wrapping a nested task callback) is
/// ~80 bytes, so 128 keeps every sim callback allocation-free while
/// larger captures still work via the heap fallback.
using EventCallback = InlineFunction<void(), 128>;

/// Slot pool for event-queue records: a vector of reusable
/// slots threaded on a LIFO free list. Generations disambiguate
/// handles to recycled slots; cancelled slots stay allocated (as
/// tombstones the queue sweeps) until collected.
class EventPool {
 public:
  struct Slot {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    bool cancelled = false;
    EventCallback cb;
  };

  /// Creates a live slot; returns its index.
  std::uint32_t acquire(double time, std::uint64_t seq, EventCallback cb) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    s.time = time;
    s.seq = seq;
    s.cancelled = false;
    s.cb = std::move(cb);
    ++live_;
    return idx;
  }

  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return slots_[idx];
  }

  /// Handle-side: is (idx, gen) still a scheduled, uncancelled event?
  [[nodiscard]] bool handle_active(std::uint32_t idx,
                                   std::uint32_t gen) const {
    return idx < slots_.size() && slots_[idx].gen == gen &&
           !slots_[idx].cancelled;
  }

  /// Handle-side cancellation; returns false when stale or repeated.
  bool cancel(std::uint32_t idx, std::uint32_t gen) {
    if (!handle_active(idx, gen)) return false;
    slots_[idx].cancelled = true;
    slots_[idx].cb = nullptr;  // free captures immediately
    --live_;
    ++tombstones_;
    return true;
  }

  /// Pops a live slot's payload and recycles it.
  std::pair<double, EventCallback> take(std::uint32_t idx) {
    Slot& s = slots_[idx];
    std::pair<double, EventCallback> out{s.time, std::move(s.cb)};
    s.cb = nullptr;
    ++s.gen;
    --live_;
    free_.push_back(idx);
    return out;
  }

  /// Recycles a cancelled slot discovered by a sweep.
  void collect_tombstone(std::uint32_t idx) {
    Slot& s = slots_[idx];
    ++s.gen;
    --tombstones_;
    free_.push_back(idx);
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace detail

class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event is scheduled and not cancelled.
  [[nodiscard]] bool active() const {
    if (auto pool = pool_.lock()) return pool->handle_active(slot_, gen_);
    return false;
  }

  /// Cancels the event; returns false if it already fired or was
  /// already cancelled (or the handle is empty).
  bool cancel() {
    if (auto pool = pool_.lock()) return pool->cancel(slot_, gen_);
    return false;
  }

 private:
  friend class EventQueue;
  EventHandle(const std::shared_ptr<detail::EventPool>& pool,
              std::uint32_t slot, std::uint32_t gen)
      : pool_(pool), slot_(slot), gen_(gen) {}

  // The pool reference is weak so a callback capturing its own handle
  // (task objects do) cannot keep the whole pool — and thus itself —
  // alive in a cycle.
  std::weak_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

}  // namespace ocelot::sim
