#pragma once
// Byte-level run-length coding with a double-byte escape.
//
// Runs of two or more equal bytes are stored as two copies of the
// byte plus a varint of the remaining run length. Used ahead of LZB
// for extremely sparse quantization streams (LosslessBackend::kRleLzb),
// which the "ans" entropy stage tries on every payload.

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace ocelot {

/// Encodes `raw` into `out` (appending).
void rle_compress(std::span<const std::uint8_t> raw, ByteSink& out);

/// Largest stream rle_compress emits for `raw_bytes` input: a varint
/// header, then at most 3 bytes per 2-byte run (longer runs and
/// literals never expand). Saturates instead of wrapping.
std::size_t rle_max_stream_bytes(std::size_t raw_bytes);

/// Decodes into `out` (cleared first; capacity is reused). Throws
/// CorruptStream on malformed input, and before reserving anything
/// when the stream claims more than `max_bytes` bytes.
void rle_decompress_into(std::span<const std::uint8_t> compressed,
                         std::size_t max_bytes, Bytes& out);

}  // namespace ocelot
