#pragma once
// Priority event queue with deterministic tie-breaking: a calendar
// queue (rotating bucket array).
//
// Events are ordered by (time, sequence number): the queue numbers
// pushes itself, so two events at the same virtual time run in
// submission order, which makes every run of the same scenario
// reproduce the same schedule bit for bit.
//
// The calendar queue is the classic O(1)-amortized alternative to a
// binary heap for discrete-event simulation (Brown, CACM 1988):
// virtual time is cut into fixed-width buckets arranged in a circular
// "year"; an event at time t lives in bucket floor(t/width) mod
// nbuckets, each bucket sorted by (time, seq). Popping scans forward
// from the current bucket — almost always a hit in the first bucket
// when the width matches the event density — and the bucket count
// doubles/halves as the live count grows/shrinks, re-estimating the
// width from the actual time spread. A full fruitless rotation
// (sparse far-future events) falls back to a direct jump to the
// global minimum, so pathological distributions degrade to
// O(buckets) per pop instead of spinning.
//
// Determinism contract: pops come out in exactly the total order
// (time, seq) — tests/support/heap_queue.hpp holds the binary-heap
// oracle the differential test replays against — and nothing here
// consults wall clocks or unseeded randomness. Push times must be
// >= the last popped time (the engine's no-scheduling-in-the-past
// rule), which is what keeps each bucket's consumed prefix ordered
// before every new arrival.
//
// Cancelled events become tombstones: O(1) at cancel time, swept
// lazily at bucket heads, and purged eagerly in one pass whenever
// they outnumber live events (keeping memory O(live)).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/event.hpp"

namespace ocelot::sim {

class EventQueue {
 public:
  using Callback = detail::EventCallback;
  using Handle = EventHandle;

  EventQueue()
      : pool_(std::make_shared<detail::EventPool>()), buckets_(kMinBuckets) {}

  /// Enqueues `cb` at virtual time `time`; returns a cancellable
  /// handle. `time` must be finite and >= the last popped time.
  EventHandle push(double time, Callback cb) {
    require(std::isfinite(time), "EventQueue: event time must be finite");
    const std::uint32_t idx = pool_->acquire(time, seq_++, std::move(cb));
    const std::int64_t vb = vbucket_of(time);
    if (!started_ || vb < vcur_) {
      vcur_ = vb;  // first event, or a near-past arrival: rewind
      started_ = true;
    }
    insert_sorted(bucket_at(vb), idx);
    ++entries_;
    if (pool_->tombstones() > pool_->live() && entries_ >= kPurgeFloor) {
      purge();
    }
    if (pool_->live() > buckets_.size() * 2) {
      rebuild(buckets_.size() * 2);
    }
    return EventHandle(pool_, idx, pool_->slot(idx).gen);
  }

  /// Earliest live event time; only valid when !empty().
  [[nodiscard]] double next_time() {
    locate_min();
    const Bucket& b = bucket_at(vcur_);
    return pool_->slot(b.items[b.head]).time;
  }

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return pool_->live() == 0; }
  /// Number of live (non-cancelled, unfired) events.
  [[nodiscard]] std::size_t live() const { return pool_->live(); }

  /// Pops the earliest live event; only valid when !empty().
  std::pair<double, Callback> pop() {
    locate_min();
    Bucket& b = bucket_at(vcur_);
    const std::uint32_t idx = b.items[b.head++];
    if (b.head == b.items.size()) {
      b.items.clear();  // keeps capacity for reuse
      b.head = 0;
    }
    --entries_;
    auto out = pool_->take(idx);
    if (buckets_.size() > kMinBuckets && pool_->live() < buckets_.size() / 4) {
      rebuild(buckets_.size() / 2);
    }
    return out;
  }

  /// Entries physically stored in buckets (live + uncollected
  /// tombstones); the churn regression bound.
  [[nodiscard]] std::size_t physical_entries() const { return entries_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  /// Eager tombstone sweeps performed.
  [[nodiscard]] std::uint64_t purges() const { return purges_; }
  /// Bucket-array rebuilds performed.
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  struct Bucket {
    std::vector<std::uint32_t> items;  ///< sorted ascending by (time, seq)
    std::uint32_t head = 0;            ///< consumed prefix cursor
  };

  static constexpr std::size_t kMinBuckets = 16;  // power of two
  static constexpr std::size_t kPurgeFloor = 64;

  [[nodiscard]] std::int64_t vbucket_of(double t) const {
    // Clamp so the int64 cast stays defined for extreme times; the
    // ordering check compares recomputed vbucket values, so a clamped
    // mapping is still self-consistent.
    constexpr double kLim = 4.0e18;
    const double q = std::floor(t / width_);
    return static_cast<std::int64_t>(std::clamp(q, -kLim, kLim));
  }

  Bucket& bucket_at(std::int64_t vb) {
    return buckets_[static_cast<std::size_t>(vb) & (buckets_.size() - 1)];
  }
  const Bucket& bucket_at(std::int64_t vb) const {
    return buckets_[static_cast<std::size_t>(vb) & (buckets_.size() - 1)];
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const detail::EventPool::Slot& sa = pool_->slot(a);
    const detail::EventPool::Slot& sb = pool_->slot(b);
    if (sa.time != sb.time) return sa.time < sb.time;
    return sa.seq < sb.seq;
  }

  void insert_sorted(Bucket& b, std::uint32_t idx) {
    // Arrivals carry monotonically increasing seq, so ties and
    // monotone bursts append in O(1); the general case binary-searches
    // the unconsumed suffix.
    auto pos = std::upper_bound(
        b.items.begin() + b.head, b.items.end(), idx,
        [this](std::uint32_t x, std::uint32_t y) { return before(x, y); });
    b.items.insert(pos, idx);
  }

  /// Drops cancelled entries at `b`'s head; resets the bucket when
  /// drained. Returns true if a live head remains.
  bool prune_head(Bucket& b) {
    while (b.head < b.items.size()) {
      const std::uint32_t idx = b.items[b.head];
      if (!pool_->slot(idx).cancelled) return true;
      pool_->collect_tombstone(idx);
      ++b.head;
      --entries_;
    }
    b.items.clear();
    b.head = 0;
    return false;
  }

  /// Positions vcur_ at the bucket holding the global minimum.
  /// Requires live() > 0.
  void locate_min() {
    for (std::size_t scanned = 0; scanned <= buckets_.size(); ++scanned) {
      Bucket& b = bucket_at(vcur_);
      if (prune_head(b) &&
          vbucket_of(pool_->slot(b.items[b.head]).time) == vcur_) {
        return;  // head is within the current year: global minimum
      }
      ++vcur_;
    }
    // A whole rotation found nothing in-year: every remaining event is
    // far in the future. Jump straight to the global minimum.
    bool found = false;
    std::uint32_t best = 0;
    for (Bucket& b : buckets_) {
      if (!prune_head(b)) continue;
      const std::uint32_t head = b.items[b.head];
      if (!found || before(head, best)) {
        best = head;
        found = true;
      }
    }
    // live() > 0 guarantees found.
    vcur_ = vbucket_of(pool_->slot(best).time);
  }

  /// One-pass sweep of every tombstone (and consumed prefix storage).
  void purge() {
    for (Bucket& b : buckets_) {
      if (b.items.empty()) continue;
      std::size_t out = 0;
      for (std::size_t i = b.head; i < b.items.size(); ++i) {
        const std::uint32_t idx = b.items[i];
        if (pool_->slot(idx).cancelled) {
          pool_->collect_tombstone(idx);
          --entries_;
        } else {
          b.items[out++] = idx;
        }
      }
      b.items.resize(out);
      b.head = 0;
    }
    ++purges_;
  }

  /// Rebuilds with `nbuckets` buckets, re-estimating the width from
  /// the live events' time spread (tombstones are collected for free).
  void rebuild(std::size_t nbuckets) {
    std::vector<std::uint32_t> ids;
    ids.reserve(pool_->live());
    double lo = 0.0, hi = 0.0;
    for (Bucket& b : buckets_) {
      for (std::size_t i = b.head; i < b.items.size(); ++i) {
        const std::uint32_t idx = b.items[i];
        const detail::EventPool::Slot& s = pool_->slot(idx);
        if (s.cancelled) {
          pool_->collect_tombstone(idx);
          continue;
        }
        if (ids.empty()) {
          lo = hi = s.time;
        } else {
          lo = std::min(lo, s.time);
          hi = std::max(hi, s.time);
        }
        ids.push_back(idx);
      }
      b.items.clear();
      b.head = 0;
    }
    buckets_.resize(nbuckets);
    // Aim for ~3 events of the current spread per bucket; clamp so the
    // bucket index stays in int64 range for any representable time.
    double width = 3.0 * (hi - lo) / static_cast<double>(ids.size() + 1);
    const double mag = std::max(std::abs(lo), std::abs(hi));
    width = std::max({width, mag / 1.0e15, 1.0e-9});
    width_ = width;
    // Redistribute in global (time, seq) order: every bucket then
    // receives an ascending stream, so this is pure appends instead of
    // mid-vector inserts.
    std::sort(ids.begin(), ids.end(),
              [this](std::uint32_t a, std::uint32_t b) { return before(a, b); });
    for (const std::uint32_t idx : ids) {
      bucket_at(vbucket_of(pool_->slot(idx).time)).items.push_back(idx);
    }
    entries_ = ids.size();
    if (!ids.empty()) vcur_ = vbucket_of(lo);
    ++resizes_;
  }

  std::uint64_t seq_ = 0;
  std::shared_ptr<detail::EventPool> pool_;
  std::vector<Bucket> buckets_;
  double width_ = 1.0;
  std::int64_t vcur_ = 0;  ///< scan frontier (virtual bucket number)
  bool started_ = false;
  std::size_t entries_ = 0;
  std::uint64_t purges_ = 0;
  std::uint64_t resizes_ = 0;
};

}  // namespace ocelot::sim
