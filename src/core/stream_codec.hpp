#pragma once
// Chunked streaming compression over byte streams (pipes, stdin).
//
// The block-parallel codec needs the whole field in memory; this layer
// removes that requirement for sequential producers: raw float32
// samples are read in block-sized chunks, each chunk is compressed as
// one OCB1 block onto one pooled payload buffer (no per-chunk
// allocation in steady state), and once EOF fixes the leading
// dimension build_block_container assembles the container from views
// into that buffer. Decompression replays the container block by
// block through decode_block_into, the same checked decoder the block
// executor uses. `ocelot compress - ...` and
// examples/streaming_pipe.cpp drive it.
//
// Bound semantics: an absolute bound behaves exactly like the block
// codec. A value-range-relative bound is resolved per chunk (the full
// field is never resident), so each block honors eb x its own chunk
// range — use mode=abs when cross-chunk uniformity matters.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/ndarray.hpp"
#include "compressor/config.hpp"

namespace ocelot {

/// Parameters of the chunked compressor.
struct StreamCompressConfig {
  CompressionConfig compression;
  /// Trailing dimensions of one slab: {} reads a flat 1-D stream,
  /// {ny} rank-2 rows, {ny, nx} rank-3 planes. The field shape becomes
  /// (slabs, slab_dims...) with the slab count discovered at EOF.
  std::vector<std::size_t> slab_dims;
  /// Slabs per compressed block (the chunk size read at a time); 0
  /// picks default_block_slabs for the slab size.
  std::size_t block_slabs = 0;
};

/// Outcome of a streaming run.
struct StreamStats {
  Shape shape;                       ///< full field shape
  std::size_t blocks = 0;            ///< OCB1 blocks written/read
  std::size_t raw_bytes = 0;         ///< float payload bytes
  std::size_t compressed_bytes = 0;  ///< container bytes

  [[nodiscard]] double ratio() const {
    return compressed_bytes > 0
               ? static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes)
               : 0.0;
  }
};

/// Reads raw float32 samples (native endianness) from `in` until EOF,
/// compressing chunk by chunk; writes one OCB1 container to `out`.
/// Throws InvalidArgument for empty input or slab_dims deeper than 2,
/// and CorruptStream when the stream ends mid-float or mid-slab.
StreamStats stream_compress(std::istream& in, std::ostream& out,
                            const StreamCompressConfig& config);

/// Reads one OCB1 container (or a bare OCZ1 blob) from `in` and writes
/// the reconstructed raw float32 samples to `out`, block by block into
/// one pooled block buffer — the full field is never materialized.
/// Throws CorruptStream on malformed input, including a block whose
/// header does not match the container's plan.
StreamStats stream_decompress(std::istream& in, std::ostream& out);

}  // namespace ocelot
