#include "io/block_container.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "compressor/compressor.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

constexpr std::uint8_t kMagic[4] = {'O', 'C', 'B', '1'};

/// Container minor-version markers (v1.1: per-block backend ids in
/// the index; v1.2: backend + entropy-stage ids). v1.0 containers have
/// no version byte: the byte after the magic is the shape rank (1-3),
/// so any value outside that range and these markers is corruption.
constexpr std::uint8_t kVersion11 = 0x11;
constexpr std::uint8_t kVersion12 = 0x12;

/// Byte offsets inside an OCZ1/OCZ2 payload header (magic 4 bytes +
/// dtype byte, then backend id; OCZ2 adds the entropy-stage byte),
/// used to sniff a block's ids when sealing it and to cross-check the
/// index on read.
constexpr std::size_t kOczBackendOffset = 5;
constexpr std::size_t kOczEntropyOffset = 6;

/// Returns the payload's backend wire id, or kUnknownBackendId for
/// payloads that are not OCZ1/OCZ2 blobs.
std::uint8_t sniff_backend_id(std::span<const std::uint8_t> payload) {
  if (payload.size() <= kOczBackendOffset) return kUnknownBackendId;
  if (std::memcmp(payload.data(), "OCZ1", 4) != 0 &&
      std::memcmp(payload.data(), "OCZ2", 4) != 0) {
    return kUnknownBackendId;
  }
  return payload[kOczBackendOffset];
}

/// Returns the payload's entropy-stage wire id: 0 for OCZ1 blobs (the
/// legacy chain is implicit), the header byte for OCZ2 blobs, and
/// kUnknownEntropyId for anything else.
std::uint8_t sniff_entropy_id(std::span<const std::uint8_t> payload) {
  if (payload.size() > kOczBackendOffset &&
      std::memcmp(payload.data(), "OCZ1", 4) == 0) {
    return 0;
  }
  if (payload.size() > kOczEntropyOffset &&
      std::memcmp(payload.data(), "OCZ2", 4) == 0) {
    return payload[kOczEntropyOffset];
  }
  return kUnknownEntropyId;
}

/// Shape of block `i` under the index's plan, computed arithmetically
/// (like read_block_index's count check) so random access never
/// materializes the whole plan.
Shape planned_block_shape(const BlockContainerInfo& info, std::size_t i) {
  const std::size_t dim0 = info.shape.dim(0);
  const std::size_t bs = std::min(info.block_slabs, dim0);
  return block_shape(info.shape, {i * bs, std::min(bs, dim0 - i * bs)});
}

}  // namespace

std::size_t default_block_slabs(std::size_t slab_values) {
  require(slab_values > 0, "default_block_slabs: empty slab");
  constexpr std::size_t kMinSlabs = 8;
  constexpr std::size_t kMinValues = 4096;
  return std::max(kMinSlabs, (kMinValues - 1) / slab_values + 1);
}

std::vector<BlockSpan> plan_blocks(std::size_t dim0,
                                   std::size_t block_slabs) {
  require(dim0 > 0, "plan_blocks: empty dimension");
  require(block_slabs > 0, "plan_blocks: zero block size");
  // Clamping preserves the single-block semantics of oversized blocks
  // and keeps `begin += block_slabs` from ever wrapping.
  block_slabs = std::min(block_slabs, dim0);
  std::vector<BlockSpan> spans;
  spans.reserve(dim0 / block_slabs + (dim0 % block_slabs != 0 ? 1 : 0));
  for (std::size_t begin = 0; begin < dim0; begin += block_slabs) {
    spans.push_back({begin, std::min(block_slabs, dim0 - begin)});
  }
  return spans;
}

Shape block_shape(const Shape& full, const BlockSpan& span) {
  switch (full.rank()) {
    case 1:
      return Shape(span.slab_count);
    case 2:
      return Shape(span.slab_count, full.dim(1));
    default:
      return Shape(span.slab_count, full.dim(1), full.dim(2));
  }
}

bool is_block_container(std::span<const std::uint8_t> data) {
  return data.size() >= 4 && std::memcmp(data.data(), kMagic, 4) == 0;
}

Bytes build_block_container(
    const Shape& shape, std::size_t block_slabs,
    const std::vector<std::span<const std::uint8_t>>& payloads) {
  const auto spans = plan_blocks(shape.dim(0), block_slabs);
  require(payloads.size() == spans.size(),
          "build_block_container: block count does not match the plan");
  // v1.2 is only worth its extra index bytes when some block actually
  // carries a non-default entropy stage; all-default (and non-OCZ)
  // containers keep the exact v1.1 bytes.
  std::size_t payload_bytes = 0;
  bool mixed_entropy = false;
  for (const auto payload : payloads) {
    require(!payload.empty(), "build_block_container: empty block payload");
    payload_bytes += payload.size();
    const std::uint8_t entropy_id = sniff_entropy_id(payload);
    mixed_entropy |= entropy_id != 0 && entropy_id != kUnknownEntropyId;
  }
  BytesWriter out;
  // Exact-fit upper bound: magic + version + shape + geometry varints
  // plus <= 16 bytes per index entry, then the payloads.
  out.target().reserve(payload_bytes + payloads.size() * 16 + 64);
  out.put_bytes(kMagic);
  out.put(mixed_entropy ? kVersion12 : kVersion11);
  write_shape(out, shape);
  out.put_varint(block_slabs);
  out.put_varint(payloads.size());
  for (const auto payload : payloads) {
    out.put_varint(payload.size());
    out.put(crc32(payload));
    out.put(sniff_backend_id(payload));
    if (mixed_entropy) out.put(sniff_entropy_id(payload));
  }
  for (const auto payload : payloads) out.put_bytes(payload);
  return out.take();
}

BlockContainerInfo read_block_index(
    std::span<const std::uint8_t> container) {
  BytesReader in(container);
  const auto magic = in.get_bytes(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw CorruptStream("block container: bad magic");

  BlockContainerInfo info;
  // v1.1/v1.2 containers carry a version byte after the magic; v1.0
  // puts the shape rank (1-3) there, disjoint from both markers.
  const std::uint8_t lead = in.get<std::uint8_t>();
  int rank = lead;
  if (lead == kVersion11 || lead == kVersion12) {
    info.has_backend_ids = true;
    info.has_entropy_ids = lead == kVersion12;
    rank = in.get<std::uint8_t>();
  } else if (lead < 1 || lead > 3) {
    throw CorruptStream("block container: unsupported version");
  }
  info.shape = read_shape(in, rank);
  info.block_slabs = in.get_varint();
  if (info.block_slabs == 0)
    throw CorruptStream("block container: zero block size");
  const std::uint64_t count = in.get_varint();
  // Expected block count, computed arithmetically so implausible dims
  // never materialize a plan; bs is clamped like plan_blocks does.
  const std::size_t dim0 = info.shape.dim(0);
  const std::size_t bs = std::min(info.block_slabs, dim0);
  const std::uint64_t expected = dim0 / bs + (dim0 % bs != 0 ? 1 : 0);
  if (count != expected)
    throw CorruptStream("block container: block count does not match shape");
  if (count > container.size())  // every block carries >= 1 payload byte
    throw CorruptStream("block container: more blocks than bytes");

  info.blocks.resize(count);
  for (auto& entry : info.blocks) {
    entry.size = in.get_varint();
    if (entry.size == 0) throw CorruptStream("block container: empty block");
    entry.crc = in.get<std::uint32_t>();
    if (info.has_backend_ids) entry.backend_id = in.get<std::uint8_t>();
    if (info.has_entropy_ids) {
      entry.entropy_id = in.get<std::uint8_t>();
    } else if (entry.backend_id != kUnknownBackendId) {
      // A v1.1 index only ever described OCZ1 payloads, whose entropy
      // stage is the implicit legacy chain.
      entry.entropy_id = 0;
    }
  }
  std::size_t offset = container.size() - in.remaining();
  for (auto& entry : info.blocks) {
    entry.offset = offset;
    // Bounds-check before accumulating so crafted sizes can neither
    // wrap the sum nor send block_payload past the buffer.
    if (entry.size > container.size() - offset)
      throw CorruptStream("block container: block overruns the buffer");
    offset += entry.size;
  }
  if (offset != container.size())
    throw CorruptStream("block container: body size mismatch");
  return info;
}

std::span<const std::uint8_t> block_payload(
    std::span<const std::uint8_t> container, const BlockContainerInfo& info,
    std::size_t i) {
  require(i < info.blocks.size(), "block_payload: block index out of range");
  const BlockIndexEntry& entry = info.blocks[i];
  const auto payload = container.subspan(entry.offset, entry.size);
  if (crc32(payload) != entry.crc)
    throw CorruptStream("block container: checksum mismatch in block " +
                        std::to_string(i));
  // The index's id bytes must agree with the payload's own header; a
  // mismatch means one of the two was tampered with after assembly.
  if (info.has_backend_ids && entry.backend_id != sniff_backend_id(payload))
    throw CorruptStream("block container: backend id mismatch in block " +
                        std::to_string(i));
  if (info.has_entropy_ids && entry.entropy_id != sniff_entropy_id(payload))
    throw CorruptStream("block container: entropy id mismatch in block " +
                        std::to_string(i));
  return payload;
}

void decode_block_into(std::span<const std::uint8_t> container,
                       const BlockContainerInfo& info, std::size_t i,
                       std::span<float> out) {
  OCELOT_SPAN("decompress.block");
  const std::span<const std::uint8_t> payload =
      block_payload(container, info, i);
  const Shape planned = planned_block_shape(info, i);
  // The block's own header must match the plan before anything is
  // decoded into the caller's storage (decompress_into checks its
  // size).
  if (!(inspect_blob(payload).shape == planned))
    throw CorruptStream("block container: block shape does not match the plan");
  decompress_into<float>(payload, planned, out);
}

FloatArray decompress_block(std::span<const std::uint8_t> container,
                            std::size_t i) {
  const BlockContainerInfo info = read_block_index(container);
  require(i < info.blocks.size(), "decompress_block: block index out of range");
  FloatArray block(planned_block_shape(info, i));
  decode_block_into(container, info, i, block.values());
  return block;
}

}  // namespace ocelot
