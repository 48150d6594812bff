#include "codec/ans.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "codec/huffman.hpp"
#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

/// Lower bound of the renormalization interval: the encoder starts
/// here and the decoder must land back on it, which doubles as a
/// cheap integrity check on the whole stream.
constexpr std::uint32_t kRansLow = 1u << 23;

// Wide scale range: small blocks with modest alphabets genuinely
// prefer a tiny table (an 8-bit scale is 1-byte freq varints and
// little precision to lose over a short stream), large blocks want
// the finest model. The encoder's cost-aware selector picks within
// this range; renormalization stays sound for any scale below the 23
// bits of kRansLow.
constexpr int kMinScaleBits = 8;
constexpr int kMaxScaleBits = 15;

/// Alphabets beyond this cannot give every symbol a nonzero slot at
/// the maximum scale; such blocks fall back to plain varints.
constexpr std::size_t kMaxUnique = std::size_t{1} << kMaxScaleBits;

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeRans = 1;

/// Normalizes the histogram to sum exactly 1 << scale_bits, keeping
/// every present symbol at frequency >= 1. Deterministic: rounding
/// drift is absorbed by the most frequent symbol (ties -> lowest
/// index), clamped at 1 so no symbol ever loses its slot.
std::vector<std::uint32_t> normalize_freqs(const SymbolHist& hist,
                                           std::uint64_t total,
                                           int scale_bits) {
  const std::uint64_t target = std::uint64_t{1} << scale_bits;
  std::vector<std::uint32_t> freqs(hist.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    const std::uint64_t scaled = hist[i].second * target / total;
    freqs[i] = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, scaled));
    sum += freqs[i];
  }
  while (sum != target) {
    std::size_t top = 0;
    for (std::size_t i = 1; i < freqs.size(); ++i) {
      if (freqs[i] > freqs[top]) top = i;
    }
    if (sum > target) {
      const std::uint64_t take =
          std::min<std::uint64_t>(freqs[top] - 1, sum - target);
      freqs[top] -= static_cast<std::uint32_t>(take);
      sum -= take;
    } else {
      freqs[top] += static_cast<std::uint32_t>(target - sum);
      sum = target;
    }
  }
  return freqs;
}

void encode_raw(std::span<const std::uint32_t> symbols, ByteSink& out) {
  out.put(kModeRaw);
  for (const std::uint32_t s : symbols) out.put_varint(s);
}

}  // namespace

void ans_encode(std::span<const std::uint32_t> symbols, ByteSink& out) {
  OCELOT_SPAN("codec.ans");
  out.put_varint(symbols.size());
  if (symbols.empty()) return;

  const SymbolHist hist = histogram_symbols(symbols);
  if (hist.size() > kMaxUnique) {
    encode_raw(symbols, out);
    return;
  }

  // Scale selection is cost-aware: a finer scale models a skewed
  // histogram more accurately (fewer cross-entropy bits per symbol)
  // but spends more header bytes on larger frequency varints. Both
  // terms fall straight out of the normalized table, so every scale is
  // priced exactly — estimated payload plus header — without encoding
  // anything, and the cheapest wins. Pure function of the histogram,
  // so the choice is deterministic.
  int scale_bits = kMaxScaleBits;
  std::vector<std::uint32_t> freqs;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int sb = kMinScaleBits; sb <= kMaxScaleBits; ++sb) {
    if ((std::size_t{1} << sb) < hist.size()) continue;  // a slot each
    std::vector<std::uint32_t> candidate =
        normalize_freqs(hist, symbols.size(), sb);
    double bits = 0.0;
    double header_bytes = 0.0;
    for (std::size_t i = 0; i < hist.size(); ++i) {
      bits += static_cast<double>(hist[i].second) *
              (sb - std::log2(static_cast<double>(candidate[i])));
      header_bytes += candidate[i] < 128 ? 1.0 : candidate[i] < 16384 ? 2.0
                                                                      : 3.0;
    }
    const double cost = bits / 8.0 + header_bytes;
    if (cost < best_cost) {
      best_cost = cost;
      scale_bits = sb;
      freqs = std::move(candidate);
    }
  }
  std::vector<std::uint32_t> cum(freqs.size() + 1, 0);
  for (std::size_t i = 0; i < freqs.size(); ++i) cum[i + 1] = cum[i] + freqs[i];

  out.put(kModeRans);
  out.put(static_cast<std::uint8_t>(scale_bits));
  // Struct-of-arrays table: every symbol delta, then every frequency.
  // Quantizer alphabets are near-contiguous, so the delta run is
  // almost all 0x01 — laid out together it collapses under the
  // stage's trailing lossless pass, which interleaved (delta, freq)
  // pairs would hide.
  out.put_varint(hist.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    out.put_varint(hist[i].first - prev);
    prev = hist[i].first;
  }
  for (std::size_t i = 0; i < hist.size(); ++i) out.put_varint(freqs[i]);

  // rANS is last-in-first-out: symbols fold in reverse so the decoder
  // reads them forward, and the emitted bytes come out backwards into
  // scratch before one reversed append lands them in the sink.
  PooledBuffer rev(BufferPool::shared());
  std::uint64_t x = kRansLow;
  for (std::size_t i = symbols.size(); i-- > 0;) {
    const auto it = std::lower_bound(
        hist.begin(), hist.end(), symbols[i],
        [](const auto& entry, std::uint32_t s) { return entry.first < s; });
    const auto idx = static_cast<std::size_t>(it - hist.begin());
    const std::uint64_t f = freqs[idx];
    const std::uint64_t x_max = ((kRansLow >> scale_bits) << 8) * f;
    while (x >= x_max) {
      rev->push_back(static_cast<std::uint8_t>(x));
      x >>= 8;
    }
    x = ((x / f) << scale_bits) + (x % f) + cum[idx];
  }
  // Final 32-bit state, low byte first: reversal turns it into the
  // big-endian prefix the decoder starts from.
  for (int b = 0; b < 32; b += 8) {
    rev->push_back(static_cast<std::uint8_t>(x >> b));
  }

  out.put_varint(rev->size());
  out.reserve(rev->size());
  for (std::size_t i = rev->size(); i-- > 0;) out.put((*rev)[i]);
}

void ans_decode_into(std::span<const std::uint8_t> data,
                     std::size_t max_symbols,
                     std::vector<std::uint32_t>& out) {
  OCELOT_SPAN("codec.ans");
  out.clear();
  BytesReader in(data);
  const std::uint64_t n = in.get_varint();
  if (n == 0) return;
  // A one-symbol alphabet legitimately packs any count into a few
  // bytes, so only the caller's bound guards the reserve below.
  if (n > max_symbols)
    throw CorruptStream("ans: stream claims " + std::to_string(n) +
                        " symbols, more than the " +
                        std::to_string(max_symbols) + " allowed");
  out.reserve(n);

  const auto mode = in.get<std::uint8_t>();
  if (mode == kModeRaw) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t v = in.get_varint();
      if (v > 0xFFFFFFFFull) throw CorruptStream("ans: symbol out of range");
      out.push_back(static_cast<std::uint32_t>(v));
    }
    return;
  }
  if (mode != kModeRans) throw CorruptStream("ans: unknown stream mode");

  const int scale_bits = in.get<std::uint8_t>();
  if (scale_bits < kMinScaleBits || scale_bits > kMaxScaleBits)
    throw CorruptStream("ans: bad scale");
  const std::uint64_t table_size = std::uint64_t{1} << scale_bits;
  const std::uint64_t unique = in.get_varint();
  if (unique == 0 || unique > table_size)
    throw CorruptStream("ans: bad table size");

  std::vector<std::uint32_t> syms(unique);
  std::vector<std::uint32_t> freqs(unique);
  std::vector<std::uint32_t> cum(unique + 1, 0);
  std::uint64_t sym = 0;
  for (std::uint64_t i = 0; i < unique; ++i) {
    sym += in.get_varint();
    if (sym > 0xFFFFFFFFull) throw CorruptStream("ans: symbol overflow");
    syms[i] = static_cast<std::uint32_t>(sym);
  }
  for (std::uint64_t i = 0; i < unique; ++i) {
    const std::uint64_t f = in.get_varint();
    if (f == 0 || f > table_size) throw CorruptStream("ans: bad frequency");
    freqs[i] = static_cast<std::uint32_t>(f);
    cum[i + 1] = cum[i] + freqs[i];
    if (cum[i + 1] > table_size) throw CorruptStream("ans: table overflows");
  }
  if (cum[unique] != table_size)
    throw CorruptStream("ans: table does not fill the scale");

  // Slot -> table index, one u16 per slot (at most 64 KB).
  std::vector<std::uint16_t> slot2idx(table_size);
  for (std::uint64_t i = 0; i < unique; ++i) {
    std::fill(slot2idx.begin() + cum[i], slot2idx.begin() + cum[i + 1],
              static_cast<std::uint16_t>(i));
  }

  const auto stream = in.get_blob();
  if (!in.exhausted()) throw CorruptStream("ans: trailing bytes");
  if (stream.size() < 4) throw CorruptStream("ans: truncated state");
  std::uint64_t x = 0;
  for (int i = 0; i < 4; ++i) x = (x << 8) | stream[i];
  std::size_t pos = 4;

  const std::uint64_t mask = table_size - 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t slot = x & mask;
    const std::uint16_t idx = slot2idx[slot];
    out.push_back(syms[idx]);
    x = freqs[idx] * (x >> scale_bits) + slot - cum[idx];
    while (x < kRansLow) {
      if (pos >= stream.size()) throw CorruptStream("ans: stream exhausted");
      x = (x << 8) | stream[pos++];
    }
  }
  // The state must unwind exactly to the encoder's start and consume
  // every stream byte; anything else is corruption.
  if (x != kRansLow) throw CorruptStream("ans: state mismatch");
  if (pos != stream.size()) throw CorruptStream("ans: unconsumed stream");
}

}  // namespace ocelot
