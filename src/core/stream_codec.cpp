#include "core/stream_codec.hpp"

#include <istream>
#include <ostream>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "compressor/compressor.hpp"
#include "io/block_container.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

Shape chunk_shape(std::size_t slabs, const std::vector<std::size_t>& dims) {
  switch (dims.size()) {
    case 0:
      return Shape(slabs);
    case 1:
      return Shape(slabs, dims[0]);
    default:
      return Shape(slabs, dims[0], dims[1]);
  }
}

/// Reads up to `want` bytes, returning the count actually read (short
/// only at EOF).
std::size_t read_fully(std::istream& in, char* dst, std::size_t want) {
  in.read(dst, static_cast<std::streamsize>(want));
  return static_cast<std::size_t>(in.gcount());
}

void write_floats(std::ostream& out, std::span<const float> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
  require(out.good(), "stream: write failed");
}

}  // namespace

StreamStats stream_compress(std::istream& in, std::ostream& out,
                            const StreamCompressConfig& config) {
  require(config.slab_dims.size() <= 2,
          "stream_compress: slab rank must be <= 2 (field rank <= 3)");
  std::size_t slab_elems = 1;
  for (const std::size_t d : config.slab_dims) {
    require(d > 0, "stream_compress: zero slab dimension");
    slab_elems *= d;
  }
  const std::size_t block_slabs = config.block_slabs > 0
                                      ? config.block_slabs
                                      : default_block_slabs(slab_elems);
  const std::size_t chunk_elems = block_slabs * slab_elems;
  const std::size_t chunk_bytes = chunk_elems * sizeof(float);

  // Chunks compress back to back into one pooled buffer; `ends` marks
  // where each block's payload stops, and the builder gets views into
  // the buffer once EOF fixes the shape.
  ScratchLease<std::uint8_t> payloads(ScratchPool<std::uint8_t>::shared());
  ByteSink sink(*payloads);
  std::vector<std::size_t> ends;
  // The lease owns the chunk storage across iterations; compression
  // borrows it via the array wrapper and hands it back (also on
  // throw), so a malformed stream cannot bleed capacity from the pool.
  ScratchLease<float> chunk(ScratchPool<float>::shared(), chunk_elems);
  std::size_t total_slabs = 0;

  while (true) {
    chunk->resize(chunk_elems);
    const std::size_t got =
        read_fully(in, reinterpret_cast<char*>(chunk->data()), chunk_bytes);
    if (got == 0) break;
    if (got % sizeof(float) != 0)
      throw CorruptStream("stream: input ends mid-float");
    const std::size_t elems = got / sizeof(float);
    if (elems % slab_elems != 0)
      throw CorruptStream("stream: input ends mid-slab");
    const std::size_t slabs = elems / slab_elems;
    chunk->resize(elems);

    // Wrap the pooled chunk, compress it onto the payload buffer, then
    // take the storage back for the next chunk.
    FloatArray block(chunk_shape(slabs, config.slab_dims),
                     std::move(*chunk));
    try {
      OCELOT_SPAN("stream.chunk");
      compress_into(block, config.compression, sink);
    } catch (...) {
      *chunk = block.release();
      throw;
    }
    *chunk = block.release();
    ends.push_back(payloads->size());

    total_slabs += slabs;
    if (got < chunk_bytes) break;  // EOF inside this chunk
  }
  require(total_slabs > 0, "stream_compress: empty input stream");

  StreamStats stats;
  stats.shape = chunk_shape(total_slabs, config.slab_dims);
  stats.blocks = ends.size();
  stats.raw_bytes = total_slabs * slab_elems * sizeof(float);

  std::vector<std::span<const std::uint8_t>> views;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    views.emplace_back(payloads->data() + begin, end - begin);
    begin = end;
  }
  const Bytes container =
      build_block_container(stats.shape, block_slabs, views);
  stats.compressed_bytes = container.size();
  out.write(reinterpret_cast<const char*>(container.data()),
            static_cast<std::streamsize>(container.size()));
  require(out.good(), "stream_compress: write failed");
  return stats;
}

StreamStats stream_decompress(std::istream& in, std::ostream& out) {
  ScratchLease<std::uint8_t> data(ScratchPool<std::uint8_t>::shared());
  {
    // Drain the stream in fixed-size chunks (no istreambuf iterator
    // churn); compressed input is small relative to the raw output.
    constexpr std::size_t kChunk = 1u << 20;
    std::size_t size = 0;
    while (true) {
      data->resize(size + kChunk);
      const std::size_t got =
          read_fully(in, reinterpret_cast<char*>(data->data() + size), kChunk);
      size += got;
      if (got < kChunk) break;
    }
    data->resize(size);
  }

  StreamStats stats;
  stats.compressed_bytes = data->size();
  if (!is_block_container(*data)) {
    // Bare OCZ1 blob: decode whole (there is no block structure).
    const FloatArray field = decompress<float>(*data);
    stats.shape = field.shape();
    stats.blocks = 1;
    stats.raw_bytes = field.byte_size();
    write_floats(out, field.values());
    return stats;
  }

  const BlockContainerInfo info = read_block_index(*data);
  stats.shape = info.shape;
  stats.blocks = info.blocks.size();
  const std::size_t slab_elems = info.shape.size() / info.shape.dim(0);
  ScratchLease<float> block(ScratchPool<float>::shared());
  std::size_t b = 0;
  for (const BlockSpan& span :
       plan_blocks(info.shape.dim(0), info.block_slabs)) {
    block->resize(span.slab_count * slab_elems);
    decode_block_into(*data, info, b++, *block);
    stats.raw_bytes += block->size() * sizeof(float);
    write_floats(out, *block);
  }
  return stats;
}

}  // namespace ocelot
