#pragma once
// Byte-level run-length coding with a double-byte escape.
//
// Runs of three or more equal bytes are stored as two copies of the
// byte plus a varint of the remaining run length. Used ahead of LZB
// for extremely sparse quantization streams (LosslessBackend::kRleLzb),
// which the "ans" entropy stage tries on every payload.

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace ocelot {

/// Encodes `raw` into `out` (appending).
void rle_compress(std::span<const std::uint8_t> raw, ByteSink& out);

/// Convenience wrapper returning a fresh buffer.
Bytes rle_compress(std::span<const std::uint8_t> raw);

/// Decodes into `out` (cleared first; capacity is reused).
/// Throws CorruptStream on malformed input.
void rle_decompress_into(std::span<const std::uint8_t> compressed, Bytes& out);

/// Convenience wrapper returning a fresh buffer.
Bytes rle_decompress(std::span<const std::uint8_t> compressed);

}  // namespace ocelot
