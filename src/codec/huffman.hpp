#pragma once
// Canonical Huffman coding over 32-bit symbols.
//
// The SZ-style compressors emit streams of quantization codes (centered
// around the zero bin); Huffman coding is the variable-length encoder
// that turns the skewed code distribution into a compact bit stream
// (Section III-A of the paper). The code table is also used standalone
// by the feature extractor to compute the P0 feature (the share of the
// encoded bit stream occupied by the zero bin).
//
// Stream layout: varint symbol-count, varint unique-count, delta-coded
// (symbol, code-length) pairs, then the canonical bit stream.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace ocelot {

/// Symbol frequency histogram (map form, for callers that probe
/// individual symbols — e.g. the feature extractor).
using SymbolCounts = std::map<std::uint32_t, std::uint64_t>;

/// Flat histogram: (symbol, count) pairs sorted by symbol. The encoder
/// works on this form — building it is one sort over pooled scratch
/// instead of one map node allocation per unique symbol.
using SymbolHist = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/// Builds a histogram of a symbol stream.
SymbolCounts count_symbols(std::span<const std::uint32_t> symbols);

/// Flat-histogram variant (sorted by symbol).
SymbolHist histogram_symbols(std::span<const std::uint32_t> symbols);

/// A canonical Huffman code: per-symbol code lengths and codewords.
class HuffmanCode {
 public:
  /// Builds an optimal prefix code from symbol frequencies.
  ///
  /// Counts must be non-empty. Code lengths are capped at 57 bits by
  /// iterative frequency rescaling (never triggered by realistic data).
  static HuffmanCode from_counts(const SymbolCounts& counts);

  /// Same code from the flat form; `hist` must be sorted by symbol.
  static HuffmanCode from_histogram(const SymbolHist& hist);

  /// Code length in bits for `symbol`; 0 if the symbol is not in the code.
  [[nodiscard]] int length(std::uint32_t symbol) const;

  /// Canonical codeword for `symbol` (valid when length(symbol) > 0).
  [[nodiscard]] std::uint64_t codeword(std::uint32_t symbol) const;

  /// Total encoded size in bits for the histogram `counts`.
  [[nodiscard]] std::uint64_t encoded_bits(const SymbolCounts& counts) const;

  /// All (symbol, length) pairs sorted by symbol.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, int>>& lengths()
      const {
    return lengths_;
  }

 private:
  // Sorted by symbol; codewords_ aligned with lengths_.
  std::vector<std::pair<std::uint32_t, int>> lengths_;
  std::vector<std::uint64_t> codewords_;
};

/// Encodes a symbol stream (table + bits) into `out`. The payload
/// length is precomputed from the code-length table, so the bit stream
/// packs straight into the sink's buffer — no intermediate vector.
/// Empty input yields a valid stream that decodes to an empty vector.
void huffman_encode(std::span<const std::uint32_t> symbols, ByteSink& out);

/// Histogram-aware variant for fused callers that already counted the
/// symbols while producing them. `hist` must be the exact
/// symbol-sorted histogram of `symbols`; the stream is byte-identical
/// to the histogram-free overload.
void huffman_encode(
    std::span<const std::uint32_t> symbols,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    ByteSink& out);

/// Decodes a stream produced by huffman_encode into `out` (cleared
/// first; capacity is reused). Throws CorruptStream on malformed input,
/// and before allocating when the stream claims more than
/// `max_symbols` symbols (a one-symbol code carries no payload bits,
/// so only the caller's bound limits its count).
void huffman_decode_into(std::span<const std::uint8_t> data,
                         std::size_t max_symbols,
                         std::vector<std::uint32_t>& out);

}  // namespace ocelot
