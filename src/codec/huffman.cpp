#include "codec/huffman.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "compressor/kernels/dispatch.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

constexpr int kMaxCodeLength = 57;

/// Dense-window histogram cap: ranges wider than this fall back to the
/// sort-based path. Quant codes cluster around the radius and byte
/// planes span <= 256, so the window is tiny in practice; the cap also
/// bounds it against O(n) so zeroing never dominates counting.
constexpr std::uint64_t kDenseHistSpan = 1u << 17;

/// Emit-table cap (entries): symbols spanning a wider range use the
/// binary-search emit path.
constexpr std::uint64_t kEmitTableSpan = 1u << 17;

/// Decode lookup covers codes up to this many bits; longer codes (rare
/// tail symbols) take the canonical walk.
constexpr int kDecodeLutBits = 11;

/// The low `len` bits of `w`, reversed: all 64 bits reversed by swapping
/// ever wider groups, then shifted down so the bits above `len` drop.
std::uint64_t bit_reverse(std::uint64_t w, int len) {
  if (len == 0) return 0;
  w = ((w >> 1) & 0x5555555555555555u) | ((w & 0x5555555555555555u) << 1);
  w = ((w >> 2) & 0x3333333333333333u) | ((w & 0x3333333333333333u) << 2);
  w = ((w >> 4) & 0x0F0F0F0F0F0F0F0Fu) | ((w & 0x0F0F0F0F0F0F0F0Fu) << 4);
  return __builtin_bswap64(w) >> (64 - len);
}

/// Huffman tree depths by van Leeuwen's two-queue merge (ICALP 1976).
/// `leaves` holds (weight, leaf) pairs sorted ascending, where leaf is
/// the symbol's index in `lengths`; each leaf's depth is written to
/// lengths[leaf].second. Returns the max depth; it may exceed
/// kMaxCodeLength for pathological weights, and the caller then
/// rescales and retries.
///
/// The codes must equal those of the historical builder, a min-heap
/// over ((weight, height), node index) keys: leaves are nodes 0..u-1
/// in symbol order with height 0, and the k-th merge creates node
/// u + k with the summed weight and height max + 1. All keys differ,
/// so the heap's pop sequence is fixed, and the merge below replays it:
///  - Pops are increasing. A merge weighs no less than the second node
///    it took and stands higher, so its key exceeds every key popped
///    so far.
///  - Merges are created in non-decreasing (weight, height) order. Let
///    merge k take pops p1 < p2 and merge k+1 take p3 < p4. Pops
///    increase, so w3 >= w1 and w4 >= w2, and merge k+1 weighs at least
///    as much as merge k. If the weights tie, w1 <= w2 <= w3 = w1 makes
///    all four equal, so the pops are ordered by height, and
///    h4 + 1 >= h2 + 1 is merge k+1's height against merge k's.
///  - So the FIFO of merges is sorted by key (equal (weight, height)
///    fall back to the creation index), and so are the leaves by
///    (weight, leaf). The heap's next pop is the smaller front. A leaf
///    and a merge of equal weight compare by height, where the leaf's 0
///    wins; hence "leaf when its weight is <= the merge's".
/// Depths then need no tree walk: a parent is created after its
/// children, so one pass from the root down over the parent links
/// sets every merge's depth before the leaves read theirs.
int tree_depths_into(
    std::span<const std::pair<std::uint64_t, std::uint32_t>> leaves,
    ScratchArena& arena, std::span<std::pair<std::uint32_t, int>> lengths) {
  const std::size_t u = leaves.size();
  const ScratchArena::Mark m = arena.mark();
  // Node ids: leaf i is i, merge k is u + k.
  std::span<std::uint64_t> merged = arena.alloc<std::uint64_t>(u - 1);
  std::span<std::uint32_t> parent = arena.alloc<std::uint32_t>(2 * u - 1);
  std::size_t next_leaf = 0;
  std::size_t front = 0;  // FIFO head; merges front..k-1 are queued
  for (std::size_t k = 0; k + 1 < u; ++k) {
    std::uint64_t sum = 0;
    for (int side = 0; side < 2; ++side) {
      std::size_t node = u + front;
      if (next_leaf < u &&
          (front == k || leaves[next_leaf].first <= merged[front])) {
        sum += leaves[next_leaf].first;
        node = leaves[next_leaf++].second;
      } else {
        sum += merged[front++];
      }
      parent[node] = static_cast<std::uint32_t>(u + k);
    }
    merged[k] = sum;
  }

  // The merges' depths, root (merge u-2) first, reuse `merged`.
  std::span<std::uint64_t> depth = merged;
  depth[u - 2] = 0;
  for (std::size_t k = u - 2; k-- > 0;) {
    depth[k] = depth[parent[u + k] - u] + 1;
  }
  int max_depth = 0;
  for (std::size_t i = 0; i < u; ++i) {
    const int d = static_cast<int>(depth[parent[i] - u]) + 1;
    lengths[i].second = d;
    max_depth = std::max(max_depth, d);
  }
  arena.rewind(m);
  return max_depth;
}

/// Canonical code views, arena-backed and sorted by symbol.
struct CodeView {
  std::span<const std::pair<std::uint32_t, int>> lengths;
  std::span<const std::uint64_t> rev;  ///< bit-reversed codewords, aligned
};

/// Builds the canonical code for a symbol-sorted histogram: tree
/// depths (with the historical rescale-retry depth cap), then
/// canonical codewords in (length, symbol) order, stored bit-reversed
/// so LSB-first accumulator emission reproduces the MSB-first bit
/// order of the original per-bit writer.
CodeView build_canonical(
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    ScratchArena& arena) {
  const std::size_t u = hist.size();
  std::span<std::pair<std::uint32_t, int>> lengths =
      arena.alloc<std::pair<std::uint32_t, int>>(u);
  std::span<std::uint64_t> rev = arena.alloc<std::uint64_t>(u);
  for (std::size_t i = 0; i < u; ++i) lengths[i] = {hist[i].first, 0};
  if (u == 1) {
    // Degenerate code: a single symbol encoded in zero bits.
    rev[0] = 0;
    return {lengths, rev};
  }

  const ScratchArena::Mark m = arena.mark();
  std::span<std::pair<std::uint64_t, std::uint32_t>> leaves =
      arena.alloc<std::pair<std::uint64_t, std::uint32_t>>(u);
  for (std::size_t i = 0; i < u; ++i) {
    leaves[i] = {hist[i].second, static_cast<std::uint32_t>(i)};
  }
  std::sort(leaves.begin(), leaves.end());
  while (tree_depths_into(leaves, arena, lengths) > kMaxCodeLength) {
    // Flatten the distribution and retry; halving weights (floor at 1)
    // strictly reduces the weight ratio that causes deep trees. Halving
    // merges neighbouring weights into ties, which the (weight, leaf)
    // order must break by leaf again, hence the re-sort.
    for (auto& leaf : leaves) {
      leaf.first = std::max<std::uint64_t>(1, leaf.first / 2);
    }
    std::sort(leaves.begin(), leaves.end());
  }
  arena.rewind(m);

  // Canonical assignment in (length, symbol) order without sorting
  // (DEFLATE's next_code, RFC 1951 3.2.2): each length's first
  // codeword follows from the counts of the shorter lengths, and a
  // symbol-order pass hands them out.
  std::array<std::uint64_t, kMaxCodeLength + 1> next_code{};
  for (const auto& entry : lengths) {
    ++next_code[static_cast<std::size_t>(entry.second)];
  }
  std::uint64_t code = 0;
  for (std::size_t len = 1; len <= kMaxCodeLength; ++len) {
    const std::uint64_t count = next_code[len];
    next_code[len] = code;
    code = (code + count) << 1;
  }
  for (std::size_t i = 0; i < u; ++i) {
    const int len = lengths[i].second;
    rev[i] = bit_reverse(next_code[static_cast<std::size_t>(len)]++, len);
  }
  return {lengths, rev};
}

/// Little-endian 8-byte load and store. memcpy compiles to one
/// unaligned move; big-endian targets byte-swap.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

void store_le64(std::uint8_t* p, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, sizeof(w));
}

/// Packs the bit payload through a 64-bit accumulator straight into
/// `dst`, which grows once to the histogram-derived `payload_bytes`
/// plus 8 bytes of store slack. Bits land LSB-first per byte exactly
/// like BitWriter: appending the bit-reversed codeword at the
/// accumulator's fill point emits the codeword MSB-first. Every put
/// stores the whole accumulator as one word and advances the cursor by
/// the bytes it completed, so the fill stays <= 7 and 7 + a 57-bit max
/// codeword fits the accumulator.
void emit_payload(std::span<const std::uint32_t> symbols, const CodeView& code,
                  std::size_t payload_bytes, ScratchArena& arena, Bytes& dst) {
  const std::size_t start = dst.size();
  dst.reserve(start + payload_bytes + 8);
  dst.resize(start + payload_bytes + 8);
  std::uint8_t* const begin = dst.data() + start;
  std::uint8_t* cur = begin;
  std::uint64_t acc = 0;
  int nbits = 0;
  const auto put = [&](std::uint64_t rev, int len) {
    acc |= rev << nbits;
    nbits += len;
    store_le64(cur, acc);
    const int done = nbits >> 3;
    cur += done;
    // A 64-bit fill completes all eight bytes and leaves nothing; the
    // select keeps the shift below 64.
    acc = done < 8 ? acc >> (8 * done) : 0;
    nbits &= 7;
  };

  const std::uint32_t min_sym = code.lengths.front().first;
  const std::uint32_t max_sym = code.lengths.back().first;
  const std::uint64_t range =
      static_cast<std::uint64_t>(max_sym) - min_sym + 1;
  if (range <= kEmitTableSpan) {
    // Dense (reversed codeword << 6 | length) table over the symbol
    // range: one load + shift per symbol.
    const ScratchArena::Mark m = arena.mark();
    std::span<std::uint64_t> lut = arena.alloc<std::uint64_t>(range);
    std::fill(lut.begin(), lut.end(), 0);
    for (std::size_t i = 0; i < code.lengths.size(); ++i) {
      lut[code.lengths[i].first - min_sym] =
          (code.rev[i] << 6) |
          static_cast<std::uint64_t>(code.lengths[i].second);
    }
    for (const std::uint32_t s : symbols) {
      const std::uint64_t e = lut[s - min_sym];
      put(e >> 6, static_cast<int>(e & 63u));
    }
    arena.rewind(m);
  } else {
    for (const std::uint32_t s : symbols) {
      const auto it = std::lower_bound(
          code.lengths.begin(), code.lengths.end(), s,
          [](const auto& entry, std::uint32_t v) { return entry.first < v; });
      const auto idx = static_cast<std::size_t>(it - code.lengths.begin());
      put(code.rev[idx], code.lengths[idx].second);
    }
  }
  // The last store already wrote the trailing partial byte.
  const auto written =
      static_cast<std::size_t>(cur - begin) + (nbits > 0 ? 1 : 0);
  require(written == payload_bytes, "huffman: payload size mismatch");
  dst.resize(start + payload_bytes);
}

/// Everything after the symbol count: code build, table emit, payload.
/// `hist` must be the exact symbol-sorted histogram of `symbols`.
void encode_with_hist(
    std::span<const std::uint32_t> symbols,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    ScratchArena& arena, ByteSink& out) {
  const CodeView code = build_canonical(hist, arena);

  // Table: unique count, then delta-coded symbols with lengths.
  out.put_varint(code.lengths.size());
  std::uint32_t prev = 0;
  for (const auto& [sym, len] : code.lengths) {
    out.put_varint(sym - prev);
    out.put_varint(static_cast<std::uint64_t>(len));
    prev = sym;
  }

  // The payload length is fully determined by the histogram, so the
  // blob's varint prefix can go out before a single bit is packed —
  // the bit stream then lands directly in the sink's buffer. lengths
  // and the histogram are sorted over the same symbol set, so they
  // align index by index.
  std::uint64_t payload_bits = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    payload_bits +=
        hist[i].second * static_cast<std::uint64_t>(code.lengths[i].second);
  }
  const auto payload_bytes = static_cast<std::size_t>((payload_bits + 7) / 8);
  out.put_varint(payload_bytes);
  if (payload_bytes > 0) {
    emit_payload(symbols, code, payload_bytes, arena, out.target());
  }
}

/// Symbol-sorted histogram in arena storage: dense window counting
/// when the (SIMD-scanned) symbol range is narrow, sort + run-length
/// otherwise.
std::span<const std::pair<std::uint32_t, std::uint64_t>> histogram_into_arena(
    std::span<const std::uint32_t> symbols, ScratchArena& arena) {
  std::uint32_t lo = 0, hi = 0;
  kernels::u32_min_max(symbols.data(), symbols.size(), lo, hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - lo + 1;
  if (range <= kDenseHistSpan &&
      range <= 8 * static_cast<std::uint64_t>(symbols.size()) + 1024) {
    std::span<std::uint64_t> win = arena.alloc<std::uint64_t>(range);
    std::fill(win.begin(), win.end(), 0);
    for (const std::uint32_t s : symbols) ++win[s - lo];
    std::size_t unique = 0;
    for (const std::uint64_t c : win) unique += c != 0 ? 1 : 0;
    std::span<std::pair<std::uint32_t, std::uint64_t>> hist =
        arena.alloc<std::pair<std::uint32_t, std::uint64_t>>(unique);
    std::size_t out = 0;
    for (std::uint64_t i = 0; i < range; ++i) {
      if (win[i] != 0) {
        hist[out++] = {lo + static_cast<std::uint32_t>(i), win[i]};
      }
    }
    return hist;
  }
  std::span<std::uint32_t> sorted = arena.alloc<std::uint32_t>(symbols.size());
  std::copy(symbols.begin(), symbols.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  std::span<std::pair<std::uint32_t, std::uint64_t>> hist =
      arena.alloc<std::pair<std::uint32_t, std::uint64_t>>(sorted.size());
  std::size_t out = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    const std::uint32_t sym = sorted[i];
    std::size_t run = i + 1;
    while (run < sorted.size() && sorted[run] == sym) ++run;
    hist[out++] = {sym, run - i};
    i = run;
  }
  return hist.first(out);
}

}  // namespace

SymbolCounts count_symbols(std::span<const std::uint32_t> symbols) {
  SymbolCounts counts;
  for (const std::uint32_t s : symbols) ++counts[s];
  return counts;
}

SymbolHist histogram_symbols(std::span<const std::uint32_t> symbols) {
  SymbolHist hist;
  if (symbols.empty()) return hist;
  ArenaScope scope;
  const auto view = histogram_into_arena(symbols, scope.arena());
  hist.assign(view.begin(), view.end());
  return hist;
}

HuffmanCode HuffmanCode::from_counts(const SymbolCounts& counts) {
  return from_histogram(SymbolHist(counts.begin(), counts.end()));
}

HuffmanCode HuffmanCode::from_histogram(const SymbolHist& counts) {
  require(!counts.empty(), "HuffmanCode: empty histogram");
  HuffmanCode code;
  ArenaScope scope;
  const CodeView view = build_canonical(counts, scope.arena());
  code.lengths_.assign(view.lengths.begin(), view.lengths.end());
  code.codewords_.resize(view.rev.size());
  for (std::size_t i = 0; i < view.rev.size(); ++i) {
    code.codewords_[i] = bit_reverse(view.rev[i], view.lengths[i].second);
  }
  return code;
}

int HuffmanCode::length(std::uint32_t symbol) const {
  const auto it = std::lower_bound(
      lengths_.begin(), lengths_.end(), symbol,
      [](const auto& entry, std::uint32_t s) { return entry.first < s; });
  if (it == lengths_.end() || it->first != symbol) return 0;
  return it->second;
}

std::uint64_t HuffmanCode::codeword(std::uint32_t symbol) const {
  const auto it = std::lower_bound(
      lengths_.begin(), lengths_.end(), symbol,
      [](const auto& entry, std::uint32_t s) { return entry.first < s; });
  require(it != lengths_.end() && it->first == symbol,
          "codeword: unknown symbol");
  return codewords_[static_cast<std::size_t>(it - lengths_.begin())];
}

std::uint64_t HuffmanCode::encoded_bits(const SymbolCounts& counts) const {
  std::uint64_t bits = 0;
  for (const auto& [sym, cnt] : counts) {
    bits += cnt * static_cast<std::uint64_t>(length(sym));
  }
  return bits;
}

void huffman_encode(std::span<const std::uint32_t> symbols, ByteSink& out) {
  out.put_varint(symbols.size());
  if (symbols.empty()) return;
  ArenaScope scope;
  std::span<const std::pair<std::uint32_t, std::uint64_t>> hist;
  {
    OCELOT_SPAN("codec.huffman.histogram");
    hist = histogram_into_arena(symbols, scope.arena());
  }
  encode_with_hist(symbols, hist, scope.arena(), out);
}

void huffman_encode(
    std::span<const std::uint32_t> symbols,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    ByteSink& out) {
  out.put_varint(symbols.size());
  if (symbols.empty()) return;
  ArenaScope scope;
  encode_with_hist(symbols, hist, scope.arena(), out);
}

std::size_t huffman_max_stream_bytes(std::size_t symbols) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return symbols > (kMax - 32) / 14 ? kMax : 14 * symbols + 32;
}

void huffman_decode_into(std::span<const std::uint8_t> data,
                         std::size_t max_symbols,
                         std::vector<std::uint32_t>& out) {
  out.clear();
  BytesReader in(data);
  const std::uint64_t n = in.get_varint();
  if (n == 0) return;
  if (n > max_symbols)
    throw CorruptStream("huffman: stream claims " + std::to_string(n) +
                        " symbols, more than the " +
                        std::to_string(max_symbols) + " allowed");

  const std::uint64_t unique = in.get_varint();
  if (unique == 0) throw CorruptStream("huffman: empty code table");
  // Every table entry is two varints, so a count the remaining bytes
  // cannot hold is rejected before the table is allocated.
  if (unique > in.remaining() / 2)
    throw CorruptStream("huffman: code table exceeds the stream");
  ArenaScope scope;
  ScratchArena& arena = scope.arena();
  // The table as (length << 32 | symbol) keys: sorting them gives the
  // canonical (length, symbol) order. Equal keys are equal entries
  // (hostile tables may repeat a symbol), so the order of the decoded
  // entries does not depend on how the sort treats ties.
  std::span<std::uint64_t> keys = arena.alloc<std::uint64_t>(unique);
  std::uint32_t sym = 0;
  for (std::uint64_t i = 0; i < unique; ++i) {
    sym += static_cast<std::uint32_t>(in.get_varint());
    const int len = static_cast<int>(in.get_varint());
    if (len < 0 || len > kMaxCodeLength)
      throw CorruptStream("huffman: bad code length");
    keys[i] = static_cast<std::uint64_t>(len) << 32 | sym;
  }
  const auto key_len = [](std::uint64_t key) {
    return static_cast<int>(key >> 32);
  };
  const auto key_sym = [](std::uint64_t key) {
    return static_cast<std::uint32_t>(key);
  };

  if (unique == 1) {
    // Zero-bit degenerate code.
    out.assign(n, key_sym(keys[0]));
    (void)in.get_blob();
    return;
  }

  // Canonical decode tables: per length, the first codeword and the
  // symbols of that length in canonical order; codes up to
  // kDecodeLutBits also get a direct (reversed-prefix -> symbol,
  // length) lookup.
  std::sort(keys.begin(), keys.end());

  std::array<std::uint64_t, kMaxCodeLength + 2> first_code{};
  std::array<std::uint64_t, kMaxCodeLength + 2> count_at{};
  std::array<std::size_t, kMaxCodeLength + 2> offset_at{};
  std::span<std::uint32_t> symbols_in_order =
      arena.alloc<std::uint32_t>(unique);
  const int max_len = key_len(keys[unique - 1]);
  const int lut_bits = std::min(kDecodeLutBits, max_len);
  const std::size_t lut_size = std::size_t{1} << lut_bits;
  std::span<std::uint32_t> lut = arena.alloc<std::uint32_t>(lut_size);
  std::fill(lut.begin(), lut.end(), 0);
  {
    std::uint64_t next = 0;
    std::size_t pos = 0;
    int prev_len = key_len(keys[0]);
    if (prev_len == 0) throw CorruptStream("huffman: zero-length code");
    for (const std::uint64_t key : keys) {
      const int len = key_len(key);
      next <<= (len - prev_len);
      prev_len = len;
      if (count_at[static_cast<std::size_t>(len)] == 0) {
        first_code[static_cast<std::size_t>(len)] = next;
        offset_at[static_cast<std::size_t>(len)] = pos;
      }
      ++count_at[static_cast<std::size_t>(len)];
      symbols_in_order[pos] = key_sym(key);
      if (len <= lut_bits) {
        const std::uint64_t rev = bit_reverse(next, len);
        const std::uint32_t entry =
            (static_cast<std::uint32_t>(pos) << 6) |
            static_cast<std::uint32_t>(len);
        for (std::uint64_t fill = rev; fill < lut_size;
             fill += std::uint64_t{1} << len) {
          lut[fill] = entry;
        }
      }
      ++pos;
      ++next;
    }
  }

  const auto payload = in.get_blob();
  // Every symbol of a code with >= 2 symbols costs at least one bit.
  if (n > 8 * static_cast<std::uint64_t>(payload.size()))
    throw CorruptStream("huffman: symbol count exceeds the payload");
  out.resize(n);
  std::uint32_t* const dst = out.data();

  // A 64-bit window over the payload, consumed LSB-first. Bits above
  // `navail` are either zero or the stream's next bits (word refills
  // read ahead), so OR-ing a byte in again is harmless.
  const std::uint8_t* p = payload.data();
  const std::size_t nbytes = payload.size();
  std::size_t bpos = 0;
  std::uint64_t acc = 0;
  int navail = 0;
  const std::uint64_t lut_mask = lut_size - 1;

  // Canonical first_code walk, bit by bit: codes longer than the LUT,
  // windows no LUT code covers, and stream tails shorter than the LUT
  // entry's length.
  const auto walk = [&]() -> std::uint32_t {
    std::uint64_t cw = 0;
    int l = 0;
    while (true) {
      if (navail == 0) {
        if (bpos < nbytes) {
          acc = p[bpos++];
          navail = 8;
        } else {
          throw CorruptStream("bit stream exhausted");
        }
      }
      cw = (cw << 1) | (acc & 1u);
      acc >>= 1;
      --navail;
      ++l;
      if (l > kMaxCodeLength) throw CorruptStream("huffman: code too long");
      const auto ls = static_cast<std::size_t>(l);
      if (count_at[ls] != 0 && cw >= first_code[ls] &&
          cw < first_code[ls] + count_at[ls]) {
        return symbols_in_order[offset_at[ls] + (cw - first_code[ls])];
      }
    }
  };

  std::uint64_t i = 0;
  if (n >= 8 && nbytes >= 8) {
    // Pair table over the LUT: per lut_bits window, one codeword or two
    // whole codewords that fit the window together, as two u32
    // symbols plus meta = bits | count << 4. Meta 0 marks a window the
    // LUT does not decode. The second code is looked up with the
    // window's unknown high bits zero. That equals the LUT entry for
    // any high bits, even for an over-full (hostile) table whose codes
    // overlap: a later, longer code that matched other high bits would
    // be preceded in canonical order by a code of at most its length
    // matching the zero bits, which would then own the entry.
    std::span<std::uint32_t> pair_syms =
        arena.alloc<std::uint32_t>(2 * lut_size);
    std::span<std::uint8_t> pair_meta = arena.alloc<std::uint8_t>(lut_size);
    for (std::size_t x = 0; x < lut_size; ++x) {
      const std::uint32_t e1 = lut[x];
      const int len1 = static_cast<int>(e1 & 63u);
      pair_meta[x] = 0;
      if (len1 == 0) continue;
      const std::uint32_t e2 = lut[x >> len1];
      const int len2 = static_cast<int>(e2 & 63u);
      const bool two = len2 != 0 && len1 + len2 <= lut_bits;
      pair_syms[2 * x] = symbols_in_order[e1 >> 6];
      pair_syms[2 * x + 1] = two ? symbols_in_order[e2 >> 6] : 0;
      pair_meta[x] = static_cast<std::uint8_t>(
          two ? (len1 + len2) | (2 << 4) : len1 | (1 << 4));
    }

    // Each lookup writes two symbols and keeps `count` of them, so the
    // loop stops 8 symbols short of n (4 lookups x 2).
    const auto lookup = [&]() -> bool {
      const std::size_t x = acc & lut_mask;
      const unsigned m = pair_meta[x];
      if (m == 0) return false;
      std::memcpy(dst + i, &pair_syms[2 * x], 2 * sizeof(std::uint32_t));
      acc >>= (m & 15u);
      navail -= static_cast<int>(m & 15u);
      i += m >> 4;
      return true;
    };
    while (n - i >= 8 && nbytes - bpos >= 8) {
      // Refill to >= 56 bits with one word; four lookups of at most
      // lut_bits (<= 11) bits each never run the window dry.
      acc |= load_le64(p + bpos) << navail;
      bpos += static_cast<std::size_t>(63 - navail) >> 3;
      navail |= 56;
      if (lookup() && lookup() && lookup() && lookup()) continue;
      dst[i++] = walk();
    }
  }

  // The tail: bytewise refills, single LUT lookups.
  for (; i < n; ++i) {
    while (navail <= 56 && bpos < nbytes) {
      acc |= static_cast<std::uint64_t>(p[bpos++]) << navail;
      navail += 8;
    }
    const std::uint32_t e = lut[acc & lut_mask];
    const int len = static_cast<int>(e & 63u);
    if (len != 0 && len <= navail) {
      dst[i] = symbols_in_order[e >> 6];
      acc >>= len;
      navail -= len;
      continue;
    }
    dst[i] = walk();
  }
}

}  // namespace ocelot
