#include "common/arena.hpp"

#include <algorithm>
#include <mutex>

namespace ocelot {

namespace {

constexpr std::size_t kMinChunkBytes = 64 * 1024;
constexpr std::size_t kMaxPooledArenas = 64;

/// Process-wide free list of arenas. Heap-allocated singleton reached
/// through a static pointer: it must outlive the main thread's
/// thread_local lease destructor (a function-local static object could
/// be destroyed first), and staying reachable keeps LeakSanitizer
/// quiet about the parked arenas.
struct ArenaPool {
  std::mutex mu;
  std::vector<std::unique_ptr<ScratchArena>> free;
};

ArenaPool& arena_pool() {
  static ArenaPool* pool = new ArenaPool;
  return *pool;
}

/// Thread-local lease: acquires an arena from the pool on first use
/// and parks it back (chunks and persistent slots intact) at thread
/// exit, so the executor's short-lived workers inherit warmed arenas.
struct ArenaLease {
  std::unique_ptr<ScratchArena> arena;

  ScratchArena& get() {
    if (!arena) {
      ArenaPool& pool = arena_pool();
      const std::scoped_lock lock(pool.mu);
      if (!pool.free.empty()) {
        arena = std::move(pool.free.back());
        pool.free.pop_back();
      }
    }
    if (!arena) arena = std::make_unique<ScratchArena>();
    return *arena;
  }

  ~ArenaLease() {
    if (!arena) return;
    arena->rewind({});
    ArenaPool& pool = arena_pool();
    const std::scoped_lock lock(pool.mu);
    if (pool.free.size() < kMaxPooledArenas) {
      pool.free.push_back(std::move(arena));
    }
  }
};

}  // namespace

ScratchArena& ScratchArena::current() {
  thread_local ArenaLease lease;
  return lease.get();
}

void* ScratchArena::raw_alloc_slow(std::size_t bytes) {
  // Advance through existing chunks (abandoning any tail space — bump
  // arenas trade that waste for pointer stability across rewinds).
  std::size_t next = cur_ < chunks_.size() ? cur_ + 1 : cur_;
  while (next < chunks_.size() && chunks_[next].cap < bytes) ++next;
  if (next >= chunks_.size()) {
    const std::size_t last_cap = chunks_.empty() ? 0 : chunks_.back().cap;
    const std::size_t cap = std::max({kMinChunkBytes, 2 * last_cap, bytes});
    chunks_.push_back({std::make_unique<std::byte[]>(cap), cap});
    next = chunks_.size() - 1;
  }
  cur_ = next;
  off_ = bytes;
  return chunks_[cur_].data.get();
}

ScratchArena::Persistent ScratchArena::persistent(Slot slot,
                                                  std::size_t bytes) {
  PersistentBuf& buf = slots_[static_cast<std::size_t>(slot)];
  bool fresh = false;
  if (buf.cap < bytes) {
    buf.data = std::make_unique<std::byte[]>(bytes);
    buf.cap = bytes;
    fresh = true;
  }
  return {{buf.data.get(), bytes}, fresh};
}

}  // namespace ocelot
