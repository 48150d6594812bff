// Tests for the chunked streaming codec (core/stream_codec): round
// trips through in-memory pipes, byte equivalence with the
// block-parallel codec, and malformed-stream rejection.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/compressor.hpp"
#include "core/stream_codec.hpp"
#include "exec/parallel_codec.hpp"

namespace ocelot {
namespace {

FloatArray walk_field(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray data(shape);
  double walk = 0.0;
  for (float& v : data.values()) {
    walk += rng.normal(0.0, 0.05);
    v = static_cast<float>(walk);
  }
  return data;
}

std::stringstream raw_stream(const FloatArray& field) {
  std::stringstream s;
  s.write(reinterpret_cast<const char*>(field.values().data()),
          static_cast<std::streamsize>(field.byte_size()));
  return s;
}

StreamCompressConfig abs_config(std::vector<std::size_t> slab_dims,
                                std::size_t block_slabs) {
  StreamCompressConfig config;
  config.compression.eb_mode = EbMode::kAbsolute;
  config.compression.eb = 1e-3;
  config.slab_dims = std::move(slab_dims);
  config.block_slabs = block_slabs;
  return config;
}

TEST(StreamCodec, RoundTripsEveryRankWithinBound) {
  struct Case {
    Shape shape;
    std::vector<std::size_t> slab_dims;
  };
  const Case cases[] = {
      {Shape(37), {}},
      {Shape(19, 6), {6}},
      {Shape(11, 5, 4), {5, 4}},
  };
  for (const Case& c : cases) {
    const FloatArray field = walk_field(c.shape, 3 + c.shape.rank());
    std::stringstream raw = raw_stream(field);
    std::stringstream compressed;
    const StreamStats cs =
        stream_compress(raw, compressed, abs_config(c.slab_dims, 4));
    EXPECT_EQ(cs.shape, c.shape);
    EXPECT_EQ(cs.raw_bytes, field.byte_size());
    EXPECT_GT(cs.blocks, 1u);

    std::stringstream restored;
    const StreamStats ds = stream_decompress(compressed, restored);
    EXPECT_EQ(ds.shape, c.shape);
    EXPECT_EQ(ds.blocks, cs.blocks);
    EXPECT_EQ(ds.raw_bytes, field.byte_size());

    std::vector<float> recon(field.size());
    restored.read(reinterpret_cast<char*>(recon.data()),
                  static_cast<std::streamsize>(field.byte_size()));
    ASSERT_EQ(restored.gcount(),
              static_cast<std::streamsize>(field.byte_size()));
    EXPECT_LE(max_abs_error<float>(field.values(), recon), 1e-3)
        << "rank " << c.shape.rank();
  }
}

TEST(StreamCodec, BytesMatchBlockParallelCodecAtAbsoluteBound) {
  // Same chunking, same bound resolution: the streamed container must
  // be byte-identical to block_compress over the resident field.
  const FloatArray field = walk_field(Shape(18, 7, 5), 23);
  const std::vector<std::size_t> slab_dims = {7, 5};

  std::stringstream raw = raw_stream(field);
  std::stringstream compressed;
  const StreamCompressConfig config = abs_config(slab_dims, 4);
  (void)stream_compress(raw, compressed, config);

  const BlockCompressResult blocked =
      block_compress(field, config.compression, 2, 4);
  const std::string streamed = compressed.str();
  ASSERT_EQ(streamed.size(), blocked.container.size());
  EXPECT_TRUE(std::equal(blocked.container.begin(), blocked.container.end(),
                         reinterpret_cast<const std::uint8_t*>(
                             streamed.data())));
}

TEST(StreamCodec, DecompressesBareBlobs) {
  const FloatArray field = walk_field(Shape(9, 8), 31);
  CompressionConfig config;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 1e-3;
  const Bytes blob = compress(field, config);

  std::stringstream in;
  in.write(reinterpret_cast<const char*>(blob.data()),
           static_cast<std::streamsize>(blob.size()));
  std::stringstream out;
  const StreamStats stats = stream_decompress(in, out);
  EXPECT_EQ(stats.shape, field.shape());
  EXPECT_EQ(stats.blocks, 1u);

  std::vector<float> recon(field.size());
  out.read(reinterpret_cast<char*>(recon.data()),
           static_cast<std::streamsize>(field.byte_size()));
  EXPECT_LE(max_abs_error<float>(field.values(), recon), 1e-3);
}

TEST(StreamCodec, MalformedInputRejected) {
  // Empty input.
  {
    std::stringstream in;
    std::stringstream out;
    EXPECT_THROW((void)stream_compress(in, out, abs_config({4}, 2)),
                 InvalidArgument);
  }
  // Trailing partial slab: 3 floats do not fill a 4-wide slab.
  {
    std::stringstream in;
    const float vals[3] = {1.f, 2.f, 3.f};
    in.write(reinterpret_cast<const char*>(vals), sizeof(vals));
    std::stringstream out;
    EXPECT_THROW((void)stream_compress(in, out, abs_config({4}, 2)),
                 CorruptStream);
  }
  // Input ends mid-float.
  {
    std::stringstream in(std::string("\x01\x02\x03", 3));
    std::stringstream out;
    EXPECT_THROW((void)stream_compress(in, out, abs_config({}, 8)),
                 CorruptStream);
  }
  // Slab rank too deep for the 3-D shape limit.
  {
    std::stringstream in;
    std::stringstream out;
    EXPECT_THROW((void)stream_compress(in, out, abs_config({2, 2, 2}, 2)),
                 InvalidArgument);
  }
  // Garbage into the decompressor.
  {
    std::stringstream in("this is not a container");
    std::stringstream out;
    EXPECT_THROW((void)stream_decompress(in, out), CorruptStream);
  }
  // A truncated container.
  {
    const FloatArray field = walk_field(Shape(12, 4), 41);
    std::stringstream raw = raw_stream(field);
    std::stringstream compressed;
    (void)stream_compress(raw, compressed, abs_config({4}, 4));
    std::string bytes = compressed.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream in(bytes);
    std::stringstream out;
    EXPECT_THROW((void)stream_decompress(in, out), CorruptStream);
  }
}

TEST(StreamCodec, DefaultBlocksOfAFlatStreamHoldThousandsOfValues) {
  // block_slabs = 0 takes default_block_slabs: a flat stream's slab is
  // one value, so its blocks hold 4096 values, not 8.
  const FloatArray field = walk_field(Shape(100000), 53);
  std::stringstream raw = raw_stream(field);
  std::stringstream compressed;
  const StreamStats stats =
      stream_compress(raw, compressed, abs_config({}, 0));
  EXPECT_EQ(stats.blocks, 25u);
  EXPECT_GT(stats.ratio(), 1.0);
}

TEST(StreamCodec, RelativeBoundResolvesPerChunk) {
  // With a value-range-relative bound, each chunk honors eb x its own
  // range (the full field is never resident).
  const FloatArray field = walk_field(Shape(16, 8), 47);
  StreamCompressConfig config;
  config.compression.eb_mode = EbMode::kValueRangeRel;
  config.compression.eb = 1e-3;
  config.slab_dims = {8};
  config.block_slabs = 4;

  std::stringstream raw = raw_stream(field);
  std::stringstream compressed;
  (void)stream_compress(raw, compressed, config);
  std::stringstream restored;
  (void)stream_decompress(compressed, restored);

  std::vector<float> recon(field.size());
  restored.read(reinterpret_cast<char*>(recon.data()),
                static_cast<std::streamsize>(field.byte_size()));
  // Worst case: the largest per-chunk range.
  double worst_eb = 0.0;
  for (std::size_t c = 0; c < 4; ++c) {
    FloatArray chunk(Shape(4, 8));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk.values()[i] = field.values()[c * chunk.size() + i];
    }
    worst_eb = std::max(worst_eb, resolve_abs_eb(chunk, config.compression));
  }
  EXPECT_LE(max_abs_error<float>(field.values(), recon), worst_eb + 1e-12);
}

}  // namespace
}  // namespace ocelot
