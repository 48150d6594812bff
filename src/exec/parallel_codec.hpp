#pragma once
// Real parallel (de)compression of a file batch (Section VII-A).
//
// Two parallelization modes:
//   * whole-file (the paper's executor): each worker compresses whole
//     files ("we let each core handle the compression of a set of
//     files in parallel"); speedup saturates when workers outnumber
//     files, exactly as Fig. 9 (left) shows.
//   * block-parallel: each file is split into fixed-size blocks along
//     its slowest dimension and every (file, block) pair is an
//     independent task, so a single large field keeps all cores busy.
//     Each field's pooled block payloads go to build_block_container
//     as views (one copy each), and decompression is block-parallel
//     too: every block decodes through decode_block_into straight
//     into its slab of the output field (see io/block_container.hpp).
//
// The block mode optionally takes a BlockPolicy (see block_policy.hpp)
// that picks each block's backend and error bound online; the policy
// runs in wave-sequenced phases so containers stay byte-identical
// across worker counts.

#include <cstddef>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/ndarray.hpp"
#include "compressor/config.hpp"
#include "exec/block_policy.hpp"

namespace ocelot {

/// Outcome of a parallel compression run.
struct ParallelCompressResult {
  std::vector<Bytes> blobs;     ///< one per input file, in order
  double wall_seconds = 0.0;
  double total_raw_bytes = 0.0;
  double total_compressed_bytes = 0.0;
  std::size_t task_count = 0;   ///< files (whole-file) or blocks (blocked)

  [[nodiscard]] double ratio() const {
    return total_compressed_bytes > 0.0
               ? total_raw_bytes / total_compressed_bytes
               : 0.0;
  }
};

/// Compresses `fields` with `workers` threads. `block_slabs` == 0
/// keeps the whole-file mode; a positive value splits every field into
/// blocks of that many slowest-dimension slabs, compresses all blocks
/// of all files concurrently, and emits one OCB1 container per field.
/// The error bound is resolved against each full field before
/// splitting, so blocked output honors the same bound as the
/// single-shot codec, and container bytes are identical for every
/// worker count.
///
/// `policy` (block mode only) delegates each block's backend and
/// error-bound choice to a BlockPolicy; decisions and feedback run at
/// deterministic wave barriers, so the container bytes still do not
/// depend on the worker count. The policy may tighten but never loosen
/// a block's bound relative to the field-resolved bound.
ParallelCompressResult parallel_compress(
    const std::vector<FloatArray>& fields, const CompressionConfig& config,
    std::size_t workers, std::size_t block_slabs = 0,
    BlockPolicy* policy = nullptr);

/// Decompresses `blobs` with `workers` threads; returns arrays in
/// order. Each blob may be a plain OCZ1 blob or an OCB1 block
/// container (detected by magic); container blocks decompress
/// concurrently, each into its own slab of the output, after
/// decode_block_into has checked it against the container's plan.
struct ParallelDecompressResult {
  std::vector<FloatArray> fields;
  double wall_seconds = 0.0;
};

ParallelDecompressResult parallel_decompress(const std::vector<Bytes>& blobs,
                                             std::size_t workers);

/// View-based overload: decodes without copying blob storage (the
/// single-container wrapper below and zero-copy callers use this).
ParallelDecompressResult parallel_decompress(
    const std::vector<std::span<const std::uint8_t>>& blobs,
    std::size_t workers);

/// Single-field convenience wrappers used by the scaling bench and the
/// rate calibration path.
struct BlockCompressResult {
  Bytes container;
  double wall_seconds = 0.0;
  std::size_t n_blocks = 0;
  double raw_bytes = 0.0;

  [[nodiscard]] double ratio() const {
    return container.empty() ? 0.0
                             : raw_bytes /
                                   static_cast<double>(container.size());
  }
};

BlockCompressResult block_compress(const FloatArray& field,
                                   const CompressionConfig& config,
                                   std::size_t workers,
                                   std::size_t block_slabs,
                                   BlockPolicy* policy = nullptr);

struct BlockDecompressResult {
  FloatArray field;
  double wall_seconds = 0.0;
};

BlockDecompressResult block_decompress(std::span<const std::uint8_t> container,
                                       std::size_t workers);

}  // namespace ocelot
