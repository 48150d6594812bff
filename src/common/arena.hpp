#pragma once
// Per-worker bump arena for hot-path scratch.
//
// The steady-state block loop must not touch the heap: every per-block
// scratch need (quant code spans, histogram windows, Huffman tree
// nodes, emit tables, match tables) is served from a chunked bump
// allocator whose chunks persist from one block to the next. Arenas
// are leased thread-locally from a process-wide pool — the executor's
// workers are short-lived std::threads, so the lease returns the arena
// (chunks and all) to the pool at thread exit and the next wave's
// workers pick it back up, the same layering that makes
// ScratchPool carry capacity across parallel_for calls.
//
// Allocation discipline is stack-like: take a Mark (ArenaScope does it
// via RAII), bump-allocate POD spans, rewind. Chunks are never freed
// by rewind, so spans handed out before a mark stay valid after it.
// Persistent slots survive rewinds; they hold state that must outlive
// a block (the lzb match table's epoch header, dense histogram windows
// kept all-zero between blocks).

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace ocelot {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bump-pointer position; rewinding to a mark frees (for reuse)
  /// everything allocated after it.
  struct Mark {
    std::size_t chunk = 0;
    std::size_t off = 0;
  };

  [[nodiscard]] Mark mark() const { return {cur_, off_}; }
  void rewind(Mark m) {
    cur_ = m.chunk;
    off_ = m.off;
  }

  /// Bump-allocates `n` elements of uninitialized POD storage. The
  /// span stays valid until the arena is rewound past this point.
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    // Rewind never runs destructors, and spans start uninitialized.
    // (std::pair counts: it is trivially destructible even though its
    // user-provided operator= makes it non-trivially-copyable.)
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is raw bytes: trivially destructible only");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if (n == 0) return {};
    void* p = raw_alloc(n * sizeof(T), alignof(T));
    return {static_cast<T*>(p), n};
  }

  /// Named buffers that survive rewind(): match tables, dense count
  /// windows. `fresh` is true when the slot was (re)allocated, i.e.
  /// the caller must (re)initialize its invariant.
  enum class Slot : std::size_t {
    kHistA = 0,     ///< dense code histogram (primary quantizer)
    kHistB = 1,     ///< dense code histogram (secondary quantizer)
    kLzbTable = 2,  ///< lzb match table + epoch header
    kCount = 3,
  };
  struct Persistent {
    std::span<std::byte> bytes;
    bool fresh;
  };
  [[nodiscard]] Persistent persistent(Slot slot, std::size_t bytes);

  /// The calling thread's leased arena: acquired from the process-wide
  /// pool on first use, returned (capacity intact) at thread exit.
  static ScratchArena& current();

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t cap = 0;
  };
  struct PersistentBuf {
    std::unique_ptr<std::byte[]> data;
    std::size_t cap = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    const std::size_t off = (off_ + (align - 1)) & ~(align - 1);
    if (cur_ < chunks_.size() && off + bytes <= chunks_[cur_].cap) {
      off_ = off + bytes;
      return chunks_[cur_].data.get() + off;
    }
    return raw_alloc_slow(bytes);
  }
  void* raw_alloc_slow(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;  ///< active chunk index (may equal chunks_.size())
  std::size_t off_ = 0;  ///< bump offset within the active chunk
  std::array<PersistentBuf, static_cast<std::size_t>(Slot::kCount)> slots_;
};

/// RAII stack frame on the calling thread's arena: everything
/// bump-allocated inside the scope is reclaimed when it ends, so
/// nested users (a backend inside the block loop inside a bench)
/// compose without trampling each other's spans.
class ArenaScope {
 public:
  ArenaScope() : arena_(ScratchArena::current()), mark_(arena_.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  [[nodiscard]] ScratchArena& arena() { return arena_; }

 private:
  ScratchArena& arena_;
  ScratchArena::Mark mark_;
};

}  // namespace ocelot
