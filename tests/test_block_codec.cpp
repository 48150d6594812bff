// Tests for the block-parallel codec and the OCB1 block container:
// bit-exactness against the serial single-shot codec, determinism
// across thread counts, checksum rejection, and random block access.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/compressor.hpp"
#include "core/local_pipeline.hpp"
#include "datagen/datasets.hpp"
#include "exec/cluster_model.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"
#include "netsim/sites.hpp"

namespace ocelot {
namespace {

FloatArray smooth_field(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray data(shape);
  double walk = 0.0;
  for (float& v : data.values()) {
    walk += rng.normal(0.0, 0.05);
    v = static_cast<float>(walk);
  }
  return data;
}

CompressionConfig test_config() {
  CompressionConfig config;
  config.backend = "sz3-interp";
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;
  return config;
}

/// Serial reference: compress each slab block with the single-shot
/// codec at the full-field resolved bound, in block order.
std::vector<Bytes> serial_block_blobs(const FloatArray& field,
                                      const CompressionConfig& config,
                                      std::size_t block_slabs) {
  CompressionConfig abs_config = config;
  abs_config.eb_mode = EbMode::kAbsolute;
  abs_config.eb = resolve_abs_eb(field, config);
  const std::size_t slab_elems =
      field.shape().dim(1) * field.shape().dim(2);
  std::vector<Bytes> blobs;
  for (const BlockSpan& span :
       plan_blocks(field.shape().dim(0), block_slabs)) {
    const Shape shape = block_shape(field.shape(), span);
    std::vector<float> data(
        field.values().begin() +
            static_cast<std::ptrdiff_t>(span.slab_begin * slab_elems),
        field.values().begin() +
            static_cast<std::ptrdiff_t>(span.slab_begin * slab_elems +
                                        shape.size()));
    blobs.push_back(compress(FloatArray(shape, std::move(data)), abs_config));
  }
  return blobs;
}

/// Views over `blobs`, the form build_block_container takes.
std::vector<std::span<const std::uint8_t>> views(
    const std::vector<Bytes>& blobs) {
  return {blobs.begin(), blobs.end()};
}

TEST(PlanBlocks, CoversEverySlabOnce) {
  for (const std::size_t dim0 : {1u, 7u, 8u, 9u, 64u}) {
    for (const std::size_t block : {1u, 3u, 8u, 100u}) {
      const auto spans = plan_blocks(dim0, block);
      std::size_t covered = 0;
      for (const auto& s : spans) {
        EXPECT_EQ(s.slab_begin, covered);
        EXPECT_GE(s.slab_count, 1u);
        EXPECT_LE(s.slab_count, block);
        covered += s.slab_count;
      }
      EXPECT_EQ(covered, dim0);
    }
  }
  EXPECT_THROW(plan_blocks(8, 0), InvalidArgument);
}

TEST(BlockCodec, RoundTripMatchesSerialCodecAtSeveralBlockSizes) {
  const FloatArray field = smooth_field(Shape(24, 10, 7), 3);
  const CompressionConfig config = test_config();
  // Block sizes: 1-slab blocks, mid-size, exact divisor, and larger
  // than the array (degenerates to a single block).
  for (const std::size_t block_slabs : {1u, 5u, 8u, 100u}) {
    const BlockCompressResult r =
        block_compress(field, config, 4, block_slabs);
    const auto reference = serial_block_blobs(field, config, block_slabs);
    EXPECT_EQ(r.container,
              build_block_container(field.shape(), block_slabs,
                                    views(reference)))
        << "block_slabs=" << block_slabs;

    // Reconstruction is bit-exact with serially decompressing each
    // reference blob.
    const BlockDecompressResult decoded = block_decompress(r.container, 4);
    ASSERT_EQ(decoded.field.shape(), field.shape());
    std::size_t offset = 0;
    for (const auto& blob : reference) {
      const FloatArray block = decompress<float>(blob);
      for (std::size_t i = 0; i < block.size(); ++i) {
        ASSERT_EQ(decoded.field[offset + i], block[i]);
      }
      offset += block.size();
    }
  }
}

TEST(BlockCodec, SingleBlockEqualsSingleShotCodec) {
  // A block covering the whole array must serialize the exact
  // single-shot OCZ1 blob (modulo the container frame) and reconstruct
  // bit-exactly like it.
  const FloatArray field = smooth_field(Shape(12, 9), 5);
  const CompressionConfig config = test_config();
  const Bytes single = compress(field, config);

  const BlockCompressResult r = block_compress(field, config, 3, 64);
  EXPECT_EQ(r.n_blocks, 1u);
  const BlockContainerInfo info = read_block_index(r.container);
  const auto payload = block_payload(r.container, info, 0);
  EXPECT_EQ(Bytes(payload.begin(), payload.end()), single);

  const FloatArray serial = decompress<float>(single);
  const BlockDecompressResult blocked = block_decompress(r.container, 4);
  EXPECT_EQ(blocked.field.vector(), serial.vector());
}

TEST(BlockCodec, OneElementBlocksRoundTrip) {
  const FloatArray field = smooth_field(Shape(17), 9);
  CompressionConfig config = test_config();
  const BlockCompressResult r = block_compress(field, config, 4, 1);
  EXPECT_EQ(r.n_blocks, 17u);
  const BlockDecompressResult decoded = block_decompress(r.container, 4);
  const double abs_eb = resolve_abs_eb(field, config);
  EXPECT_LE(max_abs_error<float>(field.values(), decoded.field.values()),
            abs_eb + 1e-12);
}

TEST(BlockCodec, ContainerBytesDeterministicAcrossThreadCounts) {
  const FloatArray field = smooth_field(Shape(20, 6, 5), 7);
  const CompressionConfig config = test_config();
  const BlockCompressResult base = block_compress(field, config, 1, 3);
  for (const std::size_t workers : {2u, 5u, 8u}) {
    const BlockCompressResult r = block_compress(field, config, workers, 3);
    EXPECT_EQ(r.container, base.container) << "workers=" << workers;
  }
}

TEST(BlockCodec, HonorsFullFieldErrorBound) {
  const FloatArray field = smooth_field(Shape(30, 8, 6), 13);
  const CompressionConfig config = test_config();
  const double abs_eb = resolve_abs_eb(field, config);
  for (const std::size_t block_slabs : {2u, 7u}) {
    const BlockCompressResult r =
        block_compress(field, config, 4, block_slabs);
    const BlockDecompressResult decoded = block_decompress(r.container, 4);
    EXPECT_LE(max_abs_error<float>(field.values(), decoded.field.values()),
              abs_eb + 1e-12);
  }
}

TEST(BlockContainer, CorruptedChecksumRejected) {
  const FloatArray field = smooth_field(Shape(16, 5), 21);
  const BlockCompressResult r = block_compress(field, test_config(), 2, 4);
  const BlockContainerInfo info = read_block_index(r.container);
  ASSERT_GE(info.blocks.size(), 2u);

  // Flip one byte inside the second block's payload.
  Bytes corrupted = r.container;
  corrupted[info.blocks[1].offset + 3] ^= 0x40;
  EXPECT_THROW((void)block_decompress(corrupted, 2), CorruptStream);
  EXPECT_THROW((void)block_payload(corrupted, info, 1), CorruptStream);
  // The undamaged block is still readable via random access.
  EXPECT_NO_THROW((void)block_payload(corrupted, info, 0));
}

TEST(BlockContainer, CraftedHeaderRejectedWithoutAllocation) {
  // Implausible dimensions must throw CorruptStream, not wrap
  // Shape::size() or trigger a giant allocation.
  BytesWriter huge;
  huge.put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("OCB1"), 4));
  huge.put(static_cast<std::uint8_t>(1));  // rank
  huge.put_varint(1ull << 50);             // dim0 beyond the element cap
  huge.put_varint(1);                      // block_slabs
  huge.put_varint(1ull << 50);             // count
  EXPECT_THROW((void)read_block_index(huge.bytes()), CorruptStream);

  // An index entry larger than the buffer must be rejected before any
  // payload access (no wrapped offset arithmetic).
  BytesWriter overrun;
  overrun.put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("OCB1"), 4));
  overrun.put(static_cast<std::uint8_t>(1));  // rank
  overrun.put_varint(2);                      // dim0
  overrun.put_varint(1);                      // block_slabs -> 2 blocks
  overrun.put_varint(2);                      // count
  overrun.put_varint(1u << 20);               // block 0 size: way too big
  overrun.put(std::uint32_t{0});              // block 0 crc
  overrun.put_varint(4);                      // block 1 size
  overrun.put(std::uint32_t{0});              // block 1 crc
  for (int i = 0; i < 8; ++i) overrun.put(std::uint8_t{0});  // tiny body
  EXPECT_THROW((void)read_block_index(overrun.bytes()), CorruptStream);
}

TEST(BlockContainer, MalformedInputRejected) {
  const FloatArray field = smooth_field(Shape(8, 4), 22);
  const BlockCompressResult r = block_compress(field, test_config(), 1, 2);

  Bytes bad_magic = r.container;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)read_block_index(bad_magic), CorruptStream);

  Bytes truncated = r.container;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW((void)read_block_index(truncated), CorruptStream);
}

TEST(BlockContainer, RandomBlockAccessMatchesFullDecode) {
  const FloatArray field = smooth_field(Shape(18, 4, 3), 31);
  const BlockCompressResult r = block_compress(field, test_config(), 4, 5);
  const BlockDecompressResult full = block_decompress(r.container, 4);
  const BlockContainerInfo info = read_block_index(r.container);

  const auto spans = plan_blocks(info.shape.dim(0), info.block_slabs);
  const std::size_t slab_elems = info.shape.dim(1) * info.shape.dim(2);
  for (std::size_t b = 0; b < spans.size(); ++b) {
    const FloatArray block = decompress_block(r.container, b);
    EXPECT_EQ(block.shape(), block_shape(info.shape, spans[b]));
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(block[i],
                full.field[spans[b].slab_begin * slab_elems + i]);
    }
  }
}

TEST(ParallelCodec, MixedBlobKindsDecodeTogether) {
  // One whole-file OCZ1 blob and one OCB1 container in the same batch:
  // parallel_decompress dispatches on the magic.
  const FloatArray a = smooth_field(Shape(10, 6), 41);
  const FloatArray b = smooth_field(Shape(14, 6), 42);
  const CompressionConfig config = test_config();

  std::vector<Bytes> blobs;
  blobs.push_back(compress(a, config));
  blobs.push_back(block_compress(b, config, 2, 4).container);
  const ParallelDecompressResult decoded = parallel_decompress(blobs, 3);
  ASSERT_EQ(decoded.fields.size(), 2u);
  EXPECT_EQ(decoded.fields[0].vector(), decompress<float>(blobs[0]).vector());
  EXPECT_EQ(decoded.fields[1].shape(), b.shape());
  EXPECT_LE(max_abs_error<float>(b.values(), decoded.fields[1].values()),
            resolve_abs_eb(b, config) + 1e-12);
}

TEST(ParallelCodec, BlockModeCountsBlockTasks) {
  std::vector<FloatArray> fields;
  fields.push_back(smooth_field(Shape(12, 4), 51));
  fields.push_back(smooth_field(Shape(9, 4), 52));
  const ParallelCompressResult r =
      parallel_compress(fields, test_config(), 4, 4);
  EXPECT_EQ(r.task_count, 3u + 3u);  // ceil(12/4) + ceil(9/4)
  for (const auto& blob : r.blobs) EXPECT_TRUE(is_block_container(blob));
}

TEST(LocalPipeline, BlockModeMatchesWholeFileQuality) {
  std::vector<std::string> names;
  std::vector<FloatArray> fields;
  for (auto& f : generate_application("CESM", 0.02, 8)) {
    names.push_back(f.name);
    fields.push_back(std::move(f.data));
  }
  LocalPipelineConfig config;
  config.compression = test_config();
  config.workers = 3;

  const LocalPipelineResult whole =
      run_local_pipeline(names, fields, config);
  config.block_slabs = 4;
  const LocalPipelineResult blocked =
      run_local_pipeline(names, fields, config);

  // Both honor the same resolved bound; blocked mode must too.
  EXPECT_GT(blocked.min_psnr_db, 0.0);
  double worst_eb = 0.0;
  for (const auto& f : fields) {
    worst_eb = std::max(worst_eb, resolve_abs_eb(f, config.compression));
  }
  EXPECT_LE(whole.max_error, worst_eb + 1e-12);
  EXPECT_LE(blocked.max_error, worst_eb + 1e-12);

  const ComputeRates rates = measured_compute_rates(blocked, config.workers);
  EXPECT_GT(rates.compress_bps_per_core, 0.0);
  EXPECT_GT(rates.decompress_bps_per_core, 0.0);
}

TEST(ClusterModel, BlockTasksBreakWholeFileSaturation) {
  // One 1 GB file on 64 cores: whole-file tasks saturate at the
  // single-file compute time; block tasks keep scaling.
  const std::vector<double> one_file{1e9};
  ComputeRates rates;
  const SharedFilesystem fs = site("Anvil").fs;
  const double whole =
      cluster_compress_seconds(one_file, 1, 64, rates, fs, 0.0);
  const double blocked =
      cluster_compress_seconds(one_file, 1, 64, rates, fs, 1e9 / 64.0);
  EXPECT_GT(whole, blocked * 4.0);
  // block_bytes = 0 stays exactly the legacy whole-file model.
  EXPECT_DOUBLE_EQ(
      whole, cluster_compress_seconds(one_file, 1, 64, rates, fs));

  const double dwhole =
      cluster_decompress_seconds(one_file, 1, 64, rates, fs, 0.0);
  const double dblocked =
      cluster_decompress_seconds(one_file, 1, 64, rates, fs, 1e9 / 64.0);
  EXPECT_GE(dwhole, dblocked);
}

TEST(BlockContainerBuilder, MisuseThrows) {
  const Bytes one{1};
  // An empty payload.
  EXPECT_THROW((void)build_block_container(Shape(2), 2, {Bytes{}}),
               InvalidArgument);
  // 1 payload, but Shape(5) at block_slabs=2 plans 3.
  EXPECT_THROW((void)build_block_container(Shape(5), 2, {one}),
               InvalidArgument);
  EXPECT_THROW((void)build_block_container(Shape(2), 0, {one}),
               InvalidArgument);
}

TEST(ClusterModel, CalibrateRatesInvertsMeasurement) {
  const ComputeRates rates = calibrate_rates(8e8, 2.0, 0.5, 4);
  EXPECT_DOUBLE_EQ(rates.compress_bps_per_core, 8e8 / (2.0 * 4));
  EXPECT_DOUBLE_EQ(rates.decompress_bps_per_core, 8e8 / (0.5 * 4));
  EXPECT_THROW(calibrate_rates(0.0, 1.0, 1.0, 4), InvalidArgument);
}

}  // namespace
}  // namespace ocelot
