#pragma once
// Bytewise entropy coders: the test-only oracles for the default
// huffman + lzb chain.
//
// These are the chain's earlier hot loops, kept out of libocelot so
// production has one implementation of each: the Huffman payload
// packer that appends one byte at a time, the Huffman decode loop that
// refills its bit window one byte at a time and appends one symbol at
// a time, and LZB's greedy parse with the short-circuit candidate
// probe. The production coders (word-at-a-time stores and refills, a
// pair decode table, a branch-free probe) must reproduce them byte for
// byte, and symbol for symbol or throw for throw on hostile input;
// tests/test_entropy_identity.cpp diffs the two.
//
// The Huffman encoder takes its canonical code from the historical
// builder kept here too: a binary heap over ((weight, height), node)
// keys, a DFS for the depths, and codewords assigned after a (length,
// symbol) comparator sort. Production builds the same code by a
// two-queue merge and per-length counts, so the oracle pins the tree
// construction, the table framing and the payload packing.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "codec/huffman.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"

namespace ocelot::reference {

inline constexpr int kMaxCodeLength = 57;
inline constexpr int kDecodeLutBits = 11;
inline constexpr std::uint64_t kEmitTableSpan = 1u << 17;

inline std::uint64_t bit_reverse(std::uint64_t w, int len) {
  std::uint64_t r = 0;
  for (int i = 0; i < len; ++i) {
    r = (r << 1) | (w & 1u);
    w >>= 1;
  }
  return r;
}

/// (symbol, length) sorted by symbol, with bit-reversed codewords.
struct CodeView {
  std::vector<std::pair<std::uint32_t, int>> lengths;
  std::vector<std::uint64_t> rev;
};

/// The historical heap builder: Huffman tree depths for `weights`
/// (aligned with the symbol-sorted `hist`), written to `lengths` sorted
/// by symbol. Leaves are nodes 0..u-1 in symbol order with height 0;
/// each merge pops the two smallest ((weight, height), node) keys and
/// pushes a new node with the summed weight and height max + 1. Every
/// key is distinct, so any min-heap pops the same sequence. Returns the
/// max depth.
inline int heap_tree_depths(
    const SymbolHist& hist, const std::vector<std::uint64_t>& weights,
    std::vector<std::pair<std::uint32_t, int>>& lengths) {
  struct Node {
    std::int64_t symbol;  // >= 0 for leaves, -1 for merges
    int left;
    int right;
  };
  using Key = std::pair<std::pair<std::uint64_t, int>, int>;  // ((w,h), node)
  std::vector<Node> nodes;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    heap.push({{weights[i], 0}, static_cast<int>(nodes.size())});
    nodes.push_back({static_cast<std::int64_t>(hist[i].first), -1, -1});
  }
  while (heap.size() > 1) {
    const Key a = heap.top();
    heap.pop();
    const Key b = heap.top();
    heap.pop();
    heap.push({{a.first.first + b.first.first,
                std::max(a.first.second, b.first.second) + 1},
               static_cast<int>(nodes.size())});
    nodes.push_back({-1, a.second, b.second});
  }

  lengths.clear();
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{
      {static_cast<int>(nodes.size()) - 1, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.symbol >= 0) {
      lengths.emplace_back(static_cast<std::uint32_t>(n.symbol), depth);
      max_depth = std::max(max_depth, depth);
    } else {
      stack.emplace_back(n.left, depth + 1);
      stack.emplace_back(n.right, depth + 1);
    }
  }
  std::sort(lengths.begin(), lengths.end());
  return max_depth;
}

/// The historical canonical code for a symbol-sorted histogram: heap
/// depths, halving every weight (floor 1) while the tree is deeper than
/// kMaxCodeLength, then codewords counted up in (length, symbol) order,
/// shifting left at every length increase.
inline CodeView huffman_code(const SymbolHist& hist) {
  CodeView code;
  const std::size_t u = hist.size();
  if (u == 1) {
    code.lengths = {{hist[0].first, 0}};
    code.rev = {0};
    return code;
  }
  std::vector<std::uint64_t> scaled(u);
  for (std::size_t i = 0; i < u; ++i) scaled[i] = hist[i].second;
  while (heap_tree_depths(hist, scaled, code.lengths) > kMaxCodeLength) {
    for (std::uint64_t& w : scaled) w = std::max<std::uint64_t>(1, w / 2);
  }

  std::vector<std::size_t> order(u);
  for (std::size_t i = 0; i < u; ++i) order[i] = i;
  const auto& lengths = code.lengths;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (lengths[a].second != lengths[b].second)
      return lengths[a].second < lengths[b].second;
    return lengths[a].first < lengths[b].first;
  });
  code.rev.assign(u, 0);
  std::uint64_t next = 0;
  int prev_len = lengths[order[0]].second;
  for (const std::size_t idx : order) {
    const int len = lengths[idx].second;
    next <<= (len - prev_len);
    prev_len = len;
    code.rev[idx] = bit_reverse(next++, len);
  }
  return code;
}

/// The bytewise payload packer: a 64-bit accumulator flushed with one
/// push_back per completed byte.
inline void emit_payload(std::span<const std::uint32_t> symbols,
                         const CodeView& code, Bytes& dst) {
  std::uint64_t acc = 0;
  int nbits = 0;
  const auto put = [&](std::uint64_t rev, int len) {
    acc |= rev << nbits;
    nbits += len;
    while (nbits >= 8) {
      dst.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  };

  const std::uint32_t min_sym = code.lengths.front().first;
  const std::uint32_t max_sym = code.lengths.back().first;
  const std::uint64_t range =
      static_cast<std::uint64_t>(max_sym) - min_sym + 1;
  if (range <= kEmitTableSpan) {
    std::vector<std::uint64_t> lut(range, 0);
    for (std::size_t i = 0; i < code.lengths.size(); ++i) {
      lut[code.lengths[i].first - min_sym] =
          (code.rev[i] << 6) |
          static_cast<std::uint64_t>(code.lengths[i].second);
    }
    for (const std::uint32_t s : symbols) {
      const std::uint64_t e = lut[s - min_sym];
      put(e >> 6, static_cast<int>(e & 63u));
    }
  } else {
    for (const std::uint32_t s : symbols) {
      const auto it = std::lower_bound(
          code.lengths.begin(), code.lengths.end(), s,
          [](const auto& entry, std::uint32_t v) { return entry.first < v; });
      const auto idx = static_cast<std::size_t>(it - code.lengths.begin());
      put(code.rev[idx], code.lengths[idx].second);
    }
  }
  if (nbits > 0) dst.push_back(static_cast<std::uint8_t>(acc));
}

/// huffman_encode's stream (count, table, payload) over the heap
/// builder's code and the bytewise packer.
inline Bytes huffman_encode(std::span<const std::uint32_t> symbols) {
  Bytes out;
  ByteSink sink(out);
  sink.put_varint(symbols.size());
  if (symbols.empty()) return out;
  const SymbolHist hist = histogram_symbols(symbols);
  const CodeView code = huffman_code(hist);

  sink.put_varint(code.lengths.size());
  std::uint32_t prev = 0;
  for (const auto& [sym, len] : code.lengths) {
    sink.put_varint(sym - prev);
    sink.put_varint(static_cast<std::uint64_t>(len));
    prev = sym;
  }
  std::uint64_t payload_bits = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    payload_bits +=
        hist[i].second * static_cast<std::uint64_t>(code.lengths[i].second);
  }
  sink.put_varint((payload_bits + 7) / 8);
  if (payload_bits > 0) emit_payload(symbols, code, out);
  return out;
}

/// The bytewise decoder. It omits the old `out.reserve(n)`: that
/// unbounded reserve is the allocation bug the production decoder now
/// bounds, and an oracle must not allocate what a hostile count claims.
inline void huffman_decode_into(std::span<const std::uint8_t> data,
                                std::vector<std::uint32_t>& out) {
  out.clear();
  BytesReader in(data);
  const std::uint64_t n = in.get_varint();
  if (n == 0) return;

  const std::uint64_t unique = in.get_varint();
  if (unique == 0) throw CorruptStream("huffman: empty code table");
  std::vector<std::pair<std::uint32_t, int>> lengths;
  std::uint32_t sym = 0;
  for (std::uint64_t i = 0; i < unique; ++i) {
    sym += static_cast<std::uint32_t>(in.get_varint());
    const int len = static_cast<int>(in.get_varint());
    if (len < 0 || len > kMaxCodeLength)
      throw CorruptStream("huffman: bad code length");
    lengths.emplace_back(sym, len);
  }

  if (unique == 1) {
    out.assign(n, lengths[0].first);
    (void)in.get_blob();
    return;
  }

  std::vector<std::uint32_t> order(unique);
  for (std::uint64_t i = 0; i < unique; ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (lengths[a].second != lengths[b].second)
      return lengths[a].second < lengths[b].second;
    return lengths[a].first < lengths[b].first;
  });

  std::array<std::uint64_t, kMaxCodeLength + 2> first_code{};
  std::array<std::uint64_t, kMaxCodeLength + 2> count_at{};
  std::array<std::size_t, kMaxCodeLength + 2> offset_at{};
  std::vector<std::uint32_t> symbols_in_order(unique);
  const int max_len = lengths[order[unique - 1]].second;
  const int lut_bits = std::min(kDecodeLutBits, max_len);
  const std::size_t lut_size = std::size_t{1} << lut_bits;
  std::vector<std::uint32_t> lut(lut_size, 0);
  {
    std::uint64_t next = 0;
    std::size_t pos = 0;
    int prev_len = lengths[order[0]].second;
    if (prev_len == 0) throw CorruptStream("huffman: zero-length code");
    for (const std::uint32_t idx : order) {
      const int len = lengths[idx].second;
      next <<= (len - prev_len);
      prev_len = len;
      if (count_at[static_cast<std::size_t>(len)] == 0) {
        first_code[static_cast<std::size_t>(len)] = next;
        offset_at[static_cast<std::size_t>(len)] = pos;
      }
      ++count_at[static_cast<std::size_t>(len)];
      symbols_in_order[pos] = lengths[idx].first;
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
  const std::uint8_t* p = payload.data();
  const std::size_t nbytes = payload.size();
  std::size_t bpos = 0;
  std::uint64_t acc = 0;
  int navail = 0;
  const std::uint64_t lut_mask = lut_size - 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    while (navail <= 56 && bpos < nbytes) {
      acc |= static_cast<std::uint64_t>(p[bpos++]) << navail;
      navail += 8;
    }
    const std::uint32_t e = lut[acc & lut_mask];
    const int len = static_cast<int>(e & 63u);
    if (len != 0 && len <= navail) {
      out.push_back(symbols_in_order[e >> 6]);
      acc >>= len;
      navail -= len;
      continue;
    }
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
        out.push_back(symbols_in_order[offset_at[ls] + (cw - first_code[ls])]);
        break;
      }
    }
  }
}

// --- LZB ---------------------------------------------------------------

inline constexpr std::size_t kLzbMinMatch = 4;
inline constexpr std::size_t kLzbMaxOffset = 65535;
inline constexpr std::size_t kLzbHashBits = 16;

inline std::uint32_t lzb_hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzbHashBits);
}

inline void lzb_put_length(Bytes& out, std::size_t extra) {
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(extra));
}

inline void lzb_emit_sequence(Bytes& out, std::span<const std::uint8_t> literals,
                              std::size_t offset, std::size_t match_len) {
  const std::size_t lit_nibble = std::min<std::size_t>(literals.size(), 15);
  const std::size_t match_code =
      match_len == 0 ? 0 : match_len - kLzbMinMatch;
  const std::size_t match_nibble = std::min<std::size_t>(match_code, 15);
  out.push_back(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) lzb_put_length(out, literals.size() - 15);
  out.insert(out.end(), literals.begin(), literals.end());
  if (match_len > 0) {
    out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out.push_back(static_cast<std::uint8_t>((offset >> 8) & 0xFF));
    if (match_nibble == 15) lzb_put_length(out, match_code - 15);
  }
}

/// Greedy match extension, bytewise.
inline std::size_t lzb_extend_match(const std::uint8_t* base, std::size_t cpos,
                                    std::size_t pos, std::size_t limit) {
  std::size_t len = kLzbMinMatch;
  while (len < limit && base[cpos + len] == base[pos + len]) ++len;
  return len;
}

/// lzb_compress's stream: the greedy parse with the short-circuit
/// probe over a plain most-recent-position table.
inline Bytes lzb_compress(std::span<const std::uint8_t> raw) {
  Bytes out;
  ByteSink sink(out);
  sink.put_varint(raw.size());
  if (raw.empty()) return out;
  std::vector<std::int64_t> table(std::size_t{1} << kLzbHashBits, -1);
  const std::uint8_t* base = raw.data();
  std::size_t pos = 0;
  std::size_t literal_start = 0;

  while (pos + kLzbMinMatch <= raw.size()) {
    const std::uint32_t h = lzb_hash4(base + pos);
    const std::int64_t cand = table[h];
    table[h] = static_cast<std::int64_t>(pos);

    std::size_t match_len = 0;
    if (cand >= 0 && pos - static_cast<std::size_t>(cand) <= kLzbMaxOffset &&
        std::memcmp(base + cand, base + pos, kLzbMinMatch) == 0) {
      match_len = lzb_extend_match(base, static_cast<std::size_t>(cand), pos,
                                   raw.size() - pos);
    }

    if (match_len >= kLzbMinMatch) {
      lzb_emit_sequence(out, raw.subspan(literal_start, pos - literal_start),
                        pos - static_cast<std::size_t>(cand), match_len);
      const std::size_t end = pos + match_len;
      for (std::size_t p = pos + 1;
           p + kLzbMinMatch <= end && p + kLzbMinMatch <= raw.size();
           p += 8) {
        table[lzb_hash4(base + p)] = static_cast<std::int64_t>(p);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }

  lzb_emit_sequence(out, raw.subspan(literal_start), 0, 0);
  return out;
}

}  // namespace ocelot::reference
