#pragma once
// LZ77-style byte compressor ("LZB") with an LZ4-like block format.
//
// This is the dictionary-coding stage of the lossless backend (the
// paper's SZ pipeline applies a dictionary coder after Huffman; SZ3
// uses zstd). LZB uses greedy hash-chain matching over a 64 KiB window
// with 4-byte minimum matches.
//
// Block format: varint raw size, then sequences of
//   token byte   (hi nibble: literal length, lo nibble: match length - 4,
//                 15 in either nibble extends with 255-run bytes)
//   literals
//   2-byte LE offset + extension bytes  (absent in the final sequence)

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace ocelot {

/// Compresses `raw` into `out`; output is never catastrophically larger
/// than input (worst case ~raw/255 + raw + 16 bytes). The match table
/// is thread-local scratch, so repeated calls on one thread allocate
/// nothing.
void lzb_compress(std::span<const std::uint8_t> raw, ByteSink& out);

/// Decompresses a stream produced by lzb_compress into `out` (cleared
/// first; capacity is reused). Throws CorruptStream on malformed input,
/// and before allocating when the stream claims more than `max_bytes`
/// bytes or more than its payload can expand to.
void lzb_decompress_into(std::span<const std::uint8_t> compressed,
                         std::size_t max_bytes, Bytes& out);

}  // namespace ocelot
