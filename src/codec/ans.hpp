#pragma once
// Tabled static rANS coder over u32 symbol streams.
//
// A range-variant asymmetric numeral system with a per-block static
// frequency table: symbol frequencies are normalized to a power-of-two
// scale (12-15 bits, grown with the alphabet), the encoder folds
// symbols into one 32-bit state with byte-granular renormalization,
// and the decoder walks the stream back with a slot->symbol table.
// Unlike Huffman, code lengths are not rounded to whole bits, so rANS
// sits within ~0.1% of the sampled entropy — on the skewed
// quantization-bin histograms the SZ pipelines produce it matches or
// beats the Huffman+lzb chain without any dictionary pass.
//
// Stream layout: varint symbol count; then (when non-empty) a mode
// byte — 1 = rANS with scale byte, delta-coded (symbol, freq) table
// and the length-prefixed state+byte stream (encoder-reversed, so the
// decoder reads forward); 0 = plain varint symbols, the fallback for
// alphabets too large to table (> 2^15 unique symbols).
//
// The coder behind entropy stage "ans" (wire id 3, see entropy.hpp).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace ocelot {

/// Encodes `symbols` into `out` (appended; no stage-id byte).
void ans_encode(std::span<const std::uint32_t> symbols, ByteSink& out);

/// Largest stream ans_encode emits for at most `symbols` symbols. The
/// table mode spends <= 8 bytes per distinct symbol (a u32 delta and a
/// frequency <= 2^15), <= 2 renormalization bytes per symbol, the
/// 4-byte final state and five headers; the varint fallback <= 5 bytes
/// per symbol. So under 10 bytes per symbol plus 32. Saturates instead
/// of wrapping.
std::size_t ans_max_stream_bytes(std::size_t symbols);

/// Decodes a stream produced by ans_encode. Throws CorruptStream on
/// malformed tables, a dangling final state, or trailing bytes, and
/// before allocating when the stream claims more than `max_symbols`
/// symbols.
void ans_decode_into(std::span<const std::uint8_t> data,
                     std::size_t max_symbols,
                     std::vector<std::uint32_t>& out);

}  // namespace ocelot
