#include "codec/lzb.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace ocelot {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;
// Output bytes one payload byte can produce at most (a 255 extension).
constexpr std::uint64_t kMaxExpansion = 255;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t hash_word(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_length(Bytes& out, std::size_t extra) {
  // 255-run extension used after a nibble value of 15.
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(extra));
}

std::size_t get_length(BytesReader& in, std::size_t nibble) {
  std::size_t len = nibble;
  if (nibble == 15) {
    while (true) {
      const auto b = in.get<std::uint8_t>();
      len += b;
      if (b != 255) break;
    }
  }
  return len;
}

void emit_sequence(Bytes& out, std::span<const std::uint8_t> literals,
                   std::size_t offset, std::size_t match_len) {
  const std::size_t lit_nibble = std::min<std::size_t>(literals.size(), 15);
  const std::size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  const std::size_t match_nibble = std::min<std::size_t>(match_code, 15);
  out.push_back(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) put_length(out, literals.size() - 15);
  out.insert(out.end(), literals.begin(), literals.end());
  if (match_len > 0) {
    out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out.push_back(static_cast<std::uint8_t>((offset >> 8) & 0xFF));
    if (match_nibble == 15) put_length(out, match_code - 15);
  }
}

/// Greedy match extension past the verified kMinMatch prefix. Word-at-
/// a-time on little-endian (first mismatching byte from countr_zero of
/// the XOR), bytewise otherwise — both walk the same greedy frontier,
/// so the emitted sequences are identical.
std::size_t extend_match(const std::uint8_t* base, std::size_t cpos,
                         std::size_t pos, std::size_t limit) {
  std::size_t len = kMinMatch;
  if constexpr (std::endian::native == std::endian::little) {
    while (len + sizeof(std::uint64_t) <= limit) {
      std::uint64_t a;
      std::uint64_t b;
      std::memcpy(&a, base + cpos + len, sizeof(a));
      std::memcpy(&b, base + pos + len, sizeof(b));
      const std::uint64_t x = a ^ b;
      if (x != 0) {
        return len + (static_cast<std::size_t>(std::countr_zero(x)) >> 3);
      }
      len += sizeof(std::uint64_t);
    }
  }
  while (len < limit && base[cpos + len] == base[pos + len]) ++len;
  return len;
}

/// The match loop, with the table policy factored out so the epoch-
/// versioned fast path and the (>= 4 GiB input) plain-vector fallback
/// share one definition. A policy exposes get(h) -> most recent
/// position or -1, and put(h, pos).
template <typename Table>
void compress_core(std::span<const std::uint8_t> raw, Bytes& out,
                   Table&& table) {
  const std::uint8_t* base = raw.data();
  std::size_t pos = 0;
  std::size_t literal_start = 0;

  while (pos + kMinMatch <= raw.size()) {
    const std::uint32_t word = load32(base + pos);
    const std::uint32_t h = hash_word(word);
    const std::int64_t cand = table.get(h);
    table.put(h, pos);

    // One branch-free predicate: on literal-heavy input (Huffman
    // output) whether a candidate exists and is in range is a coin
    // flip, while a verified 4-byte hit is rare and predictable. A
    // missing candidate compares pos with itself and is masked off.
    const bool found = cand >= 0;
    const std::size_t cpos = found ? static_cast<std::size_t>(cand) : pos;
    const bool hit = found & (pos - cpos <= kMaxOffset) &
                     (load32(base + cpos) == word);

    if (hit) {
      const std::size_t match_len =
          extend_match(base, cpos, pos, raw.size() - pos);
      emit_sequence(out, raw.subspan(literal_start, pos - literal_start),
                    pos - cpos, match_len);
      // Refresh the table inside the match so later data can reference it.
      const std::size_t end = pos + match_len;
      for (std::size_t p = pos + 1;
           p + kMinMatch <= end && p + kMinMatch <= raw.size();
           p += 8) {  // sparse refresh keeps compression fast
        table.put(hash_word(load32(base + p)), p);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }

  // Trailing literals (possibly the whole input).
  emit_sequence(out, raw.subspan(literal_start), 0, 0);
}

/// Single-entry hash table of the most recent position per 4-byte
/// hash, held in the thread's arena as a persistent slot and versioned
/// by an epoch word: an entry (epoch << 32 | pos) is live only when
/// its upper half matches the current call's epoch, so stale positions
/// read as "no candidate" and the 512 KiB table is zeroed once per
/// thread (and at the ~2^32-call epoch wrap) instead of every call.
struct EpochTable {
  static constexpr std::size_t kWords = (std::size_t{1} << kHashBits) + 1;

  explicit EpochTable(ScratchArena& arena) {
    const auto slot = arena.persistent(ScratchArena::Slot::kLzbTable,
                                       kWords * sizeof(std::uint64_t));
    words_ = reinterpret_cast<std::uint64_t*>(slot.bytes.data());
    if (slot.fresh || words_[0] == 0xFFFFFFFFull) {
      std::memset(words_, 0, kWords * sizeof(std::uint64_t));
    }
    epoch_ = ++words_[0];
  }

  [[nodiscard]] std::int64_t get(std::uint32_t h) const {
    const std::uint64_t e = words_[1 + h];
    if ((e >> 32) != epoch_) return -1;
    return static_cast<std::int64_t>(e & 0xFFFFFFFFull);
  }
  void put(std::uint32_t h, std::size_t pos) {
    words_[1 + h] = (epoch_ << 32) | static_cast<std::uint64_t>(pos);
  }

  std::uint64_t* words_;
  std::uint64_t epoch_;
};

/// Fallback for inputs whose positions do not fit the 32-bit packed
/// entry (>= 4 GiB). Allocates per call; such inputs never hit the
/// steady-state block loop.
struct VectorTable {
  std::vector<std::int64_t> entries =
      std::vector<std::int64_t>(std::size_t{1} << kHashBits, -1);

  [[nodiscard]] std::int64_t get(std::uint32_t h) const { return entries[h]; }
  void put(std::uint32_t h, std::size_t pos) {
    entries[h] = static_cast<std::int64_t>(pos);
  }
};

}  // namespace

void lzb_compress(std::span<const std::uint8_t> raw, ByteSink& sink) {
  sink.put_varint(raw.size());
  if (raw.empty()) return;
  Bytes& out = sink.target();
  if (raw.size() > 0xFFFFFFFFull) {
    compress_core(raw, out, VectorTable{});
    return;
  }
  compress_core(raw, out, EpochTable{ScratchArena::current()});
}

void lzb_decompress_into(std::span<const std::uint8_t> compressed,
                         std::size_t max_bytes, Bytes& out) {
  out.clear();
  BytesReader in(compressed);
  const std::uint64_t raw_size = in.get_varint();
  // Claims above the caller's bound, or beyond what the payload can
  // expand to, are rejected before allocating.
  if (raw_size > max_bytes)
    throw CorruptStream("lzb: stream claims " + std::to_string(raw_size) +
                        " bytes, more than the " + std::to_string(max_bytes) +
                        " allowed");
  if (raw_size > kMaxExpansion * in.remaining())
    throw CorruptStream("lzb: raw size exceeds what the payload can expand to");
  out.resize(static_cast<std::size_t>(raw_size));
  std::uint8_t* const dst = out.data();
  std::size_t pos = 0;

  while (pos < raw_size) {
    const auto token = in.get<std::uint8_t>();
    const std::size_t lit_len = get_length(in, token >> 4);
    if (lit_len > raw_size - pos) throw CorruptStream("lzb: literal overflow");
    const auto lits = in.get_bytes(lit_len);
    if (lit_len > 0) std::memcpy(dst + pos, lits.data(), lit_len);
    pos += lit_len;
    if (pos == raw_size) break;

    const auto lo = in.get<std::uint8_t>();
    const auto hi = in.get<std::uint8_t>();
    const std::size_t offset = lo | (static_cast<std::size_t>(hi) << 8);
    if (offset == 0 || offset > pos)
      throw CorruptStream("lzb: bad match offset");
    const std::size_t match_len = get_length(in, token & 0xF) + kMinMatch;
    if (match_len > raw_size - pos) throw CorruptStream("lzb: match overflow");
    const std::size_t src = pos - offset;
    if (offset >= match_len) {
      std::memcpy(dst + pos, dst + src, match_len);
    } else {
      // Overlapping match (offset < length) replicates byte by byte.
      for (std::size_t i = 0; i < match_len; ++i) dst[pos + i] = dst[src + i];
    }
    pos += match_len;
  }
}

}  // namespace ocelot
