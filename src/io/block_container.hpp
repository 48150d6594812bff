#pragma once
// Self-describing container for a block-compressed field ("OCB1").
//
// The block-parallel codec splits one FloatArray into fixed-size
// blocks along the slowest dimension, compresses every block
// independently (each block is a standard OCZ1 blob), and serializes
// them here. The container records the full field shape, the block
// geometry, and a per-block (length, CRC-32) index, so a reader can
//   * decompress all blocks concurrently,
//   * fetch a single block without touching the rest (random access),
//   * reject corrupted payloads before decompression.
//
// Layout (v1.1): magic "OCB1", version byte 0x11, shape (rank +
// dims), varint block_slabs, varint block count, per-block varint
// payload length + u32 CRC-32 + u8 backend wire id, then the payloads
// concatenated in block order. The per-block backend byte is what lets
// the adaptive advisor mix compressor families inside one container
// and still recover every block's decision from the index alone,
// without touching payload bytes.
//
// v1.2 extends each index entry with one more byte: the block's
// entropy-stage wire id (see codec/entropy.hpp), sniffed from the
// payload header the same way the backend byte is. The builder only
// emits v1.2 when some block actually uses a non-default entropy
// stage (an OCZ2 payload); all-default containers keep the exact v1.1
// bytes, so advisor-less pipelines and their golden containers are
// untouched.
//
// v1.0 containers (written before the backend byte existed) carry no
// version byte: the byte after the magic is the shape rank, which is
// always 1-3 and therefore disjoint from the 0x11/0x12 version
// markers. Readers accept all three; the builder emits v1.1 or v1.2 as
// described. Because block order and per-block compression are
// deterministic, container bytes do not depend on how many threads
// produced them.
//
// One path each way: build_block_container assembles every container,
// and decode_block_into decodes every block for the block executor,
// the stream codec and random access (decompress_block).

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/ndarray.hpp"

namespace ocelot {

/// One block of the slab split: a contiguous run of slowest-dimension
/// slabs. `slab_begin`/`slab_count` index dimension 0 of the field.
struct BlockSpan {
  std::size_t slab_begin = 0;
  std::size_t slab_count = 0;
};

/// Splits `dim0` slabs into blocks of `block_slabs` (last may be
/// short). `block_slabs` >= dim0 yields a single block.
std::vector<BlockSpan> plan_blocks(std::size_t dim0,
                                   std::size_t block_slabs);

/// plan_blocks(dim0, block_slabs).size(), computed without building
/// the plan (so a container reader never materializes one for
/// implausible dims).
[[nodiscard]] std::size_t block_count(std::size_t dim0,
                                      std::size_t block_slabs);

/// Slabs per block when the caller names none: 8, or as many slabs as
/// hold 4096 values when a slab holds fewer than 512 (a rank-1
/// field's slab is one value, and 8-value blocks cost more in headers
/// than they save).
[[nodiscard]] std::size_t default_block_slabs(std::size_t slab_values);

/// Shape of one block of `full`: the slab count replaces dim 0, the
/// rank is preserved.
Shape block_shape(const Shape& full, const BlockSpan& span);

/// Index backend id for payloads that are not OCZ1/OCZ2 blobs (or any
/// block of a legacy v1.0 container, whose index predates the byte).
inline constexpr std::uint8_t kUnknownBackendId = 0xFF;

/// Index entropy-stage id for payloads whose header carries none
/// (non-OCZ payloads, and every block of a v1.0 container).
inline constexpr std::uint8_t kUnknownEntropyId = 0xFF;

/// Parsed container index.
struct BlockIndexEntry {
  std::size_t offset = 0;  ///< payload start within the container
  std::size_t size = 0;    ///< payload bytes
  std::uint32_t crc = 0;   ///< CRC-32 of the payload
  /// Compressor wire id of the block's payload (v1.1+ containers);
  /// kUnknownBackendId for v1.0 containers and non-OCZ payloads.
  std::uint8_t backend_id = kUnknownBackendId;
  /// Entropy-stage wire id of the block's payload: stored in v1.2
  /// indexes, implied 0 for OCZ1 payloads of v1.1 containers,
  /// kUnknownEntropyId for v1.0 containers and non-OCZ payloads.
  std::uint8_t entropy_id = kUnknownEntropyId;
};

struct BlockContainerInfo {
  Shape shape;                   ///< full field shape
  std::size_t block_slabs = 0;   ///< slabs per block along dim 0
  /// True iff the index carries per-block backend ids (v1.1+).
  bool has_backend_ids = false;
  /// True iff the index carries per-block entropy-stage ids (v1.2).
  bool has_entropy_ids = false;
  std::vector<BlockIndexEntry> blocks;  ///< in slab order
};

/// True iff `data` starts with the OCB1 magic.
bool is_block_container(std::span<const std::uint8_t> data);

/// The one container builder: magic, version, `shape`, geometry, the
/// index, then `payloads` (views, in slab order), each copied once. The
/// index records every payload's length, CRC-32, and the backend and
/// entropy-stage wire ids sniffed from its OCZ1/OCZ2 header (non-OCZ
/// payloads record the unknown sentinels). Throws InvalidArgument on a
/// zero block size, an empty payload, or a payload count that does not
/// match plan_blocks(shape.dim(0), block_slabs).
Bytes build_block_container(
    const Shape& shape, std::size_t block_slabs,
    const std::vector<std::span<const std::uint8_t>>& payloads);

/// Parses the header/index. Throws CorruptStream on malformed input.
BlockContainerInfo read_block_index(std::span<const std::uint8_t> container);

/// Returns the payload view for block `i`, verifying its checksum and
/// that the index's backend and entropy-stage ids (when the container
/// carries them) match the payload's own header. Throws CorruptStream
/// on a checksum or id mismatch.
std::span<const std::uint8_t> block_payload(
    std::span<const std::uint8_t> container, const BlockContainerInfo& info,
    std::size_t i);

/// The one block decoder behind every OCB1 reader: runs
/// block_payload's checks on block `i`, requires the block's own header
/// to declare exactly its planned shape (CorruptStream "block
/// container: block shape does not match the plan" otherwise), and only
/// then decodes into `out`, the caller's storage for the block's slab
/// (block_shape(info.shape, plan_blocks(...)[i]).size() floats; any
/// other size throws InvalidArgument).
void decode_block_into(std::span<const std::uint8_t> container,
                       const BlockContainerInfo& info, std::size_t i,
                       std::span<float> out);

/// Random access: decompresses only block `i` of the container.
FloatArray decompress_block(std::span<const std::uint8_t> container,
                            std::size_t i);

}  // namespace ocelot
