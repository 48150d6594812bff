#pragma once
// Reusable scratch buffers for the streaming data path.
//
// Every stage of the compression pipeline needs transient byte or
// element scratch (Huffman output before the lossless stage, per-block
// blob buffers, slab slices). Allocating those per call dominated the
// allocation profile of the block-parallel executor; the pools here
// hand out cleared-but-capacity-preserving vectors so steady-state
// traffic runs allocation-free.
//
// Thread model: every pool method is mutex-protected, so one pool can
// be shared across the executor's worker threads (the workers are
// short-lived std::threads, so thread_local storage would die with
// them — a process-wide pool is what actually carries capacity from
// one parallel_for call to the next). shared() is that process-wide
// instance. Prefer the RAII PooledBuffer lease: it returns the buffer
// even when the borrowing code throws.

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace detail {

/// Mutex-protected free list of vectors with capacity preserved across
/// acquire/release cycles. Shared base of BufferPool/ScratchPool.
template <typename V>
class VectorPool {
 public:
  VectorPool() = default;
  VectorPool(const VectorPool&) = delete;
  VectorPool& operator=(const VectorPool&) = delete;

  /// Pops a cleared buffer (or creates one) with at least
  /// `reserve_hint` bytes/elements of capacity.
  [[nodiscard]] V acquire(std::size_t reserve_hint = 0) {
    V buf;
    // Lease-wait accounting costs one flag load when profiling is
    // off; when on, it measures time spent blocked on the pool mutex.
    const bool timed = obs::profiling_enabled();
    const std::uint64_t wait_from = timed ? monotonic_now_ns() : 0;
    {
      const std::scoped_lock lock(mu_);
      if (timed) wait_ns_ += monotonic_now_ns() - wait_from;
      ++outstanding_;
      if (!free_.empty()) {
        ++reused_;
        buf = std::move(free_.back());
        free_.pop_back();
      } else {
        ++created_;
      }
    }
    if (buf.capacity() < reserve_hint) buf.reserve(reserve_hint);
    return buf;
  }

  /// Returns a buffer to the pool: cleared, capacity kept. Buffers
  /// beyond the free-list cap are simply destroyed (bounds memory).
  void release(V buf) {
    buf.clear();
    const std::scoped_lock lock(mu_);
    if (outstanding_ > 0) --outstanding_;
    if (free_.size() < kMaxFree) free_.push_back(std::move(buf));
  }

  struct Stats {
    std::size_t created = 0;      ///< buffers ever allocated fresh
    std::size_t reused = 0;       ///< acquires served from the free list
    std::size_t outstanding = 0;  ///< currently leased
    std::size_t free = 0;         ///< currently pooled
    std::size_t pooled_capacity = 0;  ///< summed capacity of free buffers
    /// Total time acquire() spent blocked on the pool mutex; only
    /// accumulated while obs profiling is enabled.
    std::uint64_t wait_ns = 0;
  };

  [[nodiscard]] Stats stats() const {
    const std::scoped_lock lock(mu_);
    Stats s;
    s.created = created_;
    s.reused = reused_;
    s.outstanding = outstanding_;
    s.free = free_.size();
    for (const V& b : free_) s.pooled_capacity += b.capacity();
    s.wait_ns = wait_ns_;
    return s;
  }

 private:
  static constexpr std::size_t kMaxFree = 64;

  mutable std::mutex mu_;
  std::vector<V> free_;
  std::size_t created_ = 0;
  std::size_t reused_ = 0;
  std::size_t outstanding_ = 0;
  std::uint64_t wait_ns_ = 0;
};

}  // namespace detail

/// Pool of byte buffers (the unit the ByteSink data path streams into).
class BufferPool : public detail::VectorPool<Bytes> {
 public:
  /// Process-wide pool: survives the executor's short-lived worker
  /// threads, so block N+1 reuses block N's capacity.
  static BufferPool& shared();
};

/// Pool of element scratch vectors (slab slices, code streams).
template <typename T>
class ScratchPool : public detail::VectorPool<std::vector<T>> {
 public:
  static ScratchPool& shared() {
    static ScratchPool pool;
    return pool;
  }
};

/// RAII lease on pooled element scratch: releases on destruction, so a
/// throwing stage cannot leak the vector out of circulation.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() = default;
  explicit ScratchLease(ScratchPool<T>& pool, std::size_t reserve_hint = 0)
      : pool_(&pool), buf_(pool.acquire(reserve_hint)) {}

  ScratchLease(ScratchLease&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        buf_(std::move(other.buf_)) {}
  ScratchLease& operator=(ScratchLease&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = std::exchange(other.pool_, nullptr);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  ~ScratchLease() { reset(); }

  void reset() {
    if (pool_ != nullptr) {
      pool_->release(std::move(buf_));
      pool_ = nullptr;
    }
    buf_.clear();
  }

  /// Moves the vector out (e.g. to back an NdArray); the lease is
  /// disarmed — return the storage with ScratchPool::release yourself.
  [[nodiscard]] std::vector<T> take() {
    pool_ = nullptr;
    return std::move(buf_);
  }

  [[nodiscard]] std::vector<T>& operator*() { return buf_; }
  [[nodiscard]] std::vector<T>* operator->() { return &buf_; }

 private:
  ScratchPool<T>* pool_ = nullptr;
  std::vector<T> buf_;
};

/// RAII lease on a pooled byte buffer: releases on destruction, so a
/// throwing stage cannot leak the buffer out of circulation.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  explicit PooledBuffer(BufferPool& pool, std::size_t reserve_hint = 0)
      : pool_(&pool), buf_(pool.acquire(reserve_hint)) {}

  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        buf_(std::move(other.buf_)) {}
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = std::exchange(other.pool_, nullptr);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  ~PooledBuffer() { reset(); }

  /// Returns the buffer to its pool early (no-op when empty-leased).
  void reset() {
    if (pool_ != nullptr) {
      pool_->release(std::move(buf_));
      pool_ = nullptr;
    }
    buf_.clear();
  }

  [[nodiscard]] Bytes& operator*() { return buf_; }
  [[nodiscard]] const Bytes& operator*() const { return buf_; }
  [[nodiscard]] Bytes* operator->() { return &buf_; }
  [[nodiscard]] bool leased() const { return pool_ != nullptr; }

 private:
  BufferPool* pool_ = nullptr;
  Bytes buf_;
};

}  // namespace ocelot
