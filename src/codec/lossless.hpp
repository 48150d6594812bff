#pragma once
// Pluggable lossless backend applied after Huffman coding.
//
// Mirrors SZ3's modular design where the final dictionary-coding stage
// is swappable (zstd in SZ3; LZB here). The backend id is stored in the
// compressed container so decompression is self-describing.
//
// The sink/_into entry points are the streaming data path: they append
// into caller-provided buffers (typically pooled scratch or the final
// blob) so chained stages never materialize intermediate vectors.

#include <cstdint>
#include <span>
#include <string>

#include "common/bytes.hpp"

namespace ocelot {

enum class LosslessBackend : std::uint8_t {
  kNone = 0,  ///< store bytes as-is
  kLzb = 1,   ///< LZ77-style dictionary coder
  kRleLzb = 2 ///< run-length pass, then LZB
};

/// Human-readable backend name ("none", "lzb", "rle+lzb").
std::string to_string(LosslessBackend backend);

/// Applies the chosen backend, appending to `out` (backend id first).
/// Chained stages (rle+lzb) run through pooled scratch.
void lossless_compress(std::span<const std::uint8_t> raw,
                       LosslessBackend backend, ByteSink& out);

/// Inverts lossless_compress into `out` (cleared first; capacity is
/// reused), dispatching on the embedded backend id. `max_bytes` is the
/// most the caller's section can hold; a stream claiming more throws
/// CorruptStream, naming the bound, before anything is reserved.
/// Throws CorruptStream on malformed input.
void lossless_decompress_into(std::span<const std::uint8_t> compressed,
                              std::size_t max_bytes, Bytes& out);

}  // namespace ocelot
