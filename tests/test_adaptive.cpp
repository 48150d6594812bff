// Tests for the online adaptive advisor and the OCB1 v1.1 per-block
// backend index: mixed compressor families in one container, legacy
// v1.0 reads, corrupt-backend-byte rejection, byte-determinism of the
// adaptive pipeline across thread counts, error-bound compliance, and
// the trained-model prediction path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "core/adaptive.hpp"
#include "core/engine.hpp"
#include "core/local_pipeline.hpp"
#include "datagen/datasets.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"

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

/// A rougher field: oscillation plus noise, so backends rank
/// differently than on the smooth random walk.
FloatArray rough_field(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray data(shape);
  std::size_t i = 0;
  for (float& v : data.values()) {
    v = static_cast<float>(std::sin(static_cast<double>(i++) * 0.37) +
                           rng.normal(0.0, 0.2));
  }
  return data;
}

CompressionConfig rel_config(double eb = 1e-3) {
  CompressionConfig config;
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = eb;
  return config;
}

std::vector<FloatArray> mixed_fields() {
  std::vector<FloatArray> fields;
  fields.push_back(smooth_field(Shape(24, 12, 7), 3));
  fields.push_back(rough_field(Shape(30, 16, 5), 4));
  return fields;
}

TEST(BlockContainerV11, MixedBackendsRoundTripAndIndexNamesEveryBlock) {
  const FloatArray field = smooth_field(Shape(12, 9, 5), 11);
  const CompressionConfig config = rel_config();
  const double abs_eb = resolve_abs_eb(field, config);

  // Compress each 4-slab block with a different backend.
  const auto spans = plan_blocks(field.shape().dim(0), 4);
  const auto table = backends();
  ASSERT_GE(table.size(), 2u);
  const std::size_t slab_elems =
      field.shape().dim(1) * field.shape().dim(2);
  std::vector<Bytes> payloads;
  std::vector<std::uint8_t> expected_ids;
  for (std::size_t b = 0; b < spans.size(); ++b) {
    CompressionConfig block_config = config;
    block_config.backend = table[b % table.size()].name;
    block_config.eb_mode = EbMode::kAbsolute;
    block_config.eb = abs_eb;
    expected_ids.push_back(table[b % table.size()].wire_id);
    const Shape shape = block_shape(field.shape(), spans[b]);
    std::vector<float> data(
        field.values().begin() +
            static_cast<std::ptrdiff_t>(spans[b].slab_begin * slab_elems),
        field.values().begin() +
            static_cast<std::ptrdiff_t>(spans[b].slab_begin * slab_elems +
                                        shape.size()));
    payloads.push_back(
        compress(FloatArray(shape, std::move(data)), block_config));
  }
  const Bytes container = build_block_container(
      field.shape(), 4, {payloads.begin(), payloads.end()});

  // Per-block backend ids are recoverable from the index alone.
  const BlockContainerInfo info = read_block_index(container);
  EXPECT_TRUE(info.has_backend_ids);
  ASSERT_EQ(info.blocks.size(), expected_ids.size());
  for (std::size_t b = 0; b < expected_ids.size(); ++b) {
    EXPECT_EQ(info.blocks[b].backend_id, expected_ids[b]) << "block " << b;
  }

  // The mixed container decodes through the standard block-parallel
  // path, honoring the shared bound.
  const BlockDecompressResult decoded = block_decompress(container, 3);
  ASSERT_EQ(decoded.field.shape(), field.shape());
  EXPECT_LE(max_abs_error<float>(field.values(), decoded.field.values()),
            abs_eb + 1e-12);
}

TEST(BlockContainerV11, LegacyV10ContainerStillReads) {
  const FloatArray field = smooth_field(Shape(8, 6), 21);
  const CompressionConfig config = rel_config();
  CompressionConfig abs_config = config;
  abs_config.eb_mode = EbMode::kAbsolute;
  abs_config.eb = resolve_abs_eb(field, config);

  // Build v1.0 bytes by hand: no version byte, no backend bytes.
  const auto spans = plan_blocks(field.shape().dim(0), 4);
  std::vector<Bytes> payloads;
  const std::size_t slab_elems = field.shape().dim(1);
  for (const auto& span : spans) {
    const Shape shape = block_shape(field.shape(), span);
    std::vector<float> data(
        field.values().begin() +
            static_cast<std::ptrdiff_t>(span.slab_begin * slab_elems),
        field.values().begin() +
            static_cast<std::ptrdiff_t>(span.slab_begin * slab_elems +
                                        shape.size()));
    payloads.push_back(compress(FloatArray(shape, std::move(data)),
                                abs_config));
  }
  BytesWriter legacy;
  legacy.put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("OCB1"), 4));
  legacy.put(static_cast<std::uint8_t>(2));  // rank — no version byte
  legacy.put_varint(field.shape().dim(0));
  legacy.put_varint(field.shape().dim(1));
  legacy.put_varint(4);  // block_slabs
  legacy.put_varint(payloads.size());
  for (const auto& payload : payloads) {
    legacy.put_varint(payload.size());
    legacy.put(crc32(payload));
  }
  for (const auto& payload : payloads) legacy.put_bytes(payload);

  const BlockContainerInfo info = read_block_index(legacy.bytes());
  EXPECT_FALSE(info.has_backend_ids);
  for (const auto& entry : info.blocks) {
    EXPECT_EQ(entry.backend_id, kUnknownBackendId);
  }
  const BlockDecompressResult decoded = block_decompress(legacy.bytes(), 2);
  EXPECT_LE(max_abs_error<float>(field.values(), decoded.field.values()),
            abs_config.eb + 1e-12);
}

TEST(BlockContainerV11, CorruptBackendByteRejected) {
  const FloatArray field = smooth_field(Shape(12, 6), 23);
  const BlockCompressResult r = block_compress(field, rel_config(), 2, 4);
  const BlockContainerInfo info = read_block_index(r.container);
  ASSERT_TRUE(info.has_backend_ids);
  ASSERT_GE(info.blocks.size(), 2u);

  // The final index entry's backend byte sits immediately before the
  // first payload. Flipping it desynchronizes index and payload header.
  Bytes corrupted = r.container;
  corrupted[info.blocks.front().offset - 1] ^= 0x2A;
  const BlockContainerInfo bad = read_block_index(corrupted);
  const std::size_t last = bad.blocks.size() - 1;
  EXPECT_THROW((void)block_payload(corrupted, bad, last), CorruptStream);
  EXPECT_THROW((void)block_decompress(corrupted, 2), CorruptStream);
  // Other blocks stay readable via random access.
  EXPECT_NO_THROW((void)block_payload(corrupted, bad, 0));
}

TEST(BlockContainerV11, TruncatedMixedContainerRejected) {
  const FloatArray field = smooth_field(Shape(10, 5), 25);
  const BlockCompressResult r = block_compress(field, rel_config(), 2, 3);
  for (std::size_t cut = 1; cut < r.container.size(); cut += 7) {
    Bytes truncated(r.container.begin(),
                    r.container.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(
        {
          const BlockContainerInfo info = read_block_index(truncated);
          for (std::size_t b = 0; b < info.blocks.size(); ++b) {
            (void)block_payload(truncated, info, b);
          }
        },
        Error)
        << "cut " << cut;
  }
}

TEST(AdaptivePolicy, ByteDeterministicAcrossThreadCounts) {
  const std::vector<FloatArray> fields = mixed_fields();
  const CompressionConfig config = rel_config();
  std::vector<Bytes> reference;
  for (const std::size_t workers : {1u, 2u, 5u}) {
    AdvisorPolicy policy;  // fresh policy: same seed, same cold state
    const ParallelCompressResult r =
        parallel_compress(fields, config, workers, 4, &policy);
    if (reference.empty()) {
      reference = r.blobs;
    } else {
      ASSERT_EQ(r.blobs.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(r.blobs[i], reference[i])
            << "workers=" << workers << " field=" << i;
      }
    }
  }
}

TEST(AdaptivePolicy, HonorsFieldBoundAndRecordsRecoverableDecisions) {
  const std::vector<FloatArray> fields = mixed_fields();
  const CompressionConfig config = rel_config();
  AdvisorPolicy policy;
  const ParallelCompressResult r =
      parallel_compress(fields, config, 2, 4, &policy);

  const ParallelDecompressResult decoded = parallel_decompress(r.blobs, 2);
  std::size_t log_row = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const double abs_eb = resolve_abs_eb(fields[i], config);
    EXPECT_LE(max_abs_error<float>(fields[i].values(),
                                   decoded.fields[i].values()),
              abs_eb + 1e-12)
        << "field " << i;

    // Container index and the policy's decision log agree block by
    // block — the advise table is recoverable from the output alone.
    const BlockContainerInfo info = read_block_index(r.blobs[i]);
    EXPECT_TRUE(info.has_backend_ids);
    for (std::size_t b = 0; b < info.blocks.size(); ++b, ++log_row) {
      // Rows land in decision order (calibration wave first), so match
      // by (field, block) instead of position.
      const auto& log = policy.log();
      const auto it = std::find_if(
          log.begin(), log.end(), [&](const AdaptiveDecisionRecord& rec) {
            return rec.field == i && rec.block == b;
          });
      ASSERT_NE(it, log.end());
      EXPECT_EQ(info.blocks[b].backend_id, it->backend_id)
          << "field " << i << " block " << b;
      EXPECT_LE(it->abs_eb, abs_eb * (1.0 + 1e-12));
      EXPECT_GT(it->observed_ratio, 0.0);
    }
  }
  EXPECT_EQ(policy.log().size(), log_row);
  EXPECT_EQ(policy.summary().blocks, log_row);
}

TEST(AdaptivePolicy, MatchesBestFixedBackendOnMixedFields) {
  const std::vector<FloatArray> fields = mixed_fields();
  const CompressionConfig config = rel_config();

  double best_fixed = 0.0;
  for (const BackendEntry& backend : backends()) {
    CompressionConfig fixed = config;
    fixed.backend = backend.name;
    best_fixed =
        std::max(best_fixed, parallel_compress(fields, fixed, 2, 4).ratio());
  }

  AdvisorPolicy policy;
  const double adaptive =
      parallel_compress(fields, config, 2, 4, &policy).ratio();
  // Keep-best duels mean adaptive cannot lose a dueled block, and the
  // leader tracks the per-field winner; a small slack absorbs blocks
  // decided before the first duel feedback.
  EXPECT_GE(adaptive, best_fixed * 0.95)
      << "adaptive " << adaptive << " vs best fixed " << best_fixed;
}

TEST(AdaptivePolicy, EbScaleCandidatesTightenUnderQualityFloor) {
  const FloatArray field = rough_field(Shape(24, 10, 6), 9);
  const CompressionConfig config = rel_config(1e-2);
  const double abs_eb = resolve_abs_eb(field, config);

  AdaptiveOptions options;
  options.eb_scales = {1.0, 0.25};
  options.min_psnr_db = 70.0;  // the loose bound cannot reach this
  AdvisorPolicy policy(options);
  const BlockCompressResult r = block_compress(field, config, 2, 4, &policy);

  bool tightened = false;
  for (const AdaptiveDecisionRecord& record : policy.log()) {
    EXPECT_LE(record.abs_eb, abs_eb * (1.0 + 1e-12));
    if (record.abs_eb < abs_eb * 0.5) tightened = true;
  }
  EXPECT_TRUE(tightened) << "quality floor never tightened a block bound";

  const BlockDecompressResult decoded = block_decompress(r.container, 2);
  EXPECT_LE(max_abs_error<float>(field.values(), decoded.field.values()),
            abs_eb + 1e-12);
}

TEST(AdaptivePolicy, TrainedModelPathIsDeterministicAndBounded) {
  // Tiny quality model trained on real round trips of both candidate
  // families, then used as the policy's predictor.
  std::vector<QualitySample> samples;
  const std::vector<FloatArray> train = mixed_fields();
  for (const FloatArray& data : train) {
    for (const char* backend : {"sz3-interp", "lorenzo"}) {
      for (const double eb : {1e-2, 1e-3, 1e-4}) {
        CompressionConfig config = rel_config(eb);
        config.backend = backend;
        const RoundTripStats stats = measure_roundtrip(data, config);
        QualitySample sample;
        sample.features = make_feature_vector(data, config, 20);
        sample.compression_ratio = stats.compression_ratio;
        sample.compress_seconds = stats.compress_seconds;
        sample.psnr_db = stats.psnr_db;
        sample.n_elements = data.size();
        samples.push_back(sample);
      }
    }
  }
  const QualityModel model = QualityModel::train(samples);

  AdaptiveOptions options;
  options.model = &model;
  options.backends = {"sz3-interp", "lorenzo"};
  const FloatArray field = smooth_field(Shape(20, 8, 6), 31);
  const CompressionConfig config = rel_config();

  Bytes reference;
  for (const std::size_t workers : {1u, 3u}) {
    AdvisorPolicy policy(options);
    const BlockCompressResult r =
        block_compress(field, config, workers, 4, &policy);
    if (reference.empty()) {
      reference = r.container;
    } else {
      EXPECT_EQ(r.container, reference);
    }
    const BlockDecompressResult decoded = block_decompress(r.container, 2);
    EXPECT_LE(max_abs_error<float>(field.values(), decoded.field.values()),
              resolve_abs_eb(field, config) + 1e-12);
    for (const AdaptiveDecisionRecord& record : policy.log()) {
      EXPECT_GT(record.predicted_ratio, 0.0);
    }
  }
}

/// A policy that tries to loosen the bound must be rejected by the
/// executor (the field-level error bound is non-negotiable).
class LooseningPolicy final : public BlockPolicy {
 public:
  void begin(std::size_t, std::size_t, const CompressionConfig& base) override {
    base_ = base;
  }
  bool wants_probe(const BlockContext&) const override { return false; }
  void probe(const BlockContext&, const FloatArray&) override {}
  BlockDecision decide(const BlockContext& ctx) override {
    BlockDecision decision;
    decision.config = base_;
    decision.config.eb_mode = EbMode::kAbsolute;
    decision.config.eb = ctx.field_abs_eb * 2.0;  // too loose
    return decision;
  }
  void observe(const BlockContext&, const BlockDecision&,
               const BlockOutcome&) override {}

 private:
  CompressionConfig base_;
};

TEST(BlockPolicyContract, LoosenedBoundRejected) {
  const FloatArray field = smooth_field(Shape(8, 4), 41);
  LooseningPolicy policy;
  EXPECT_THROW((void)block_compress(field, rel_config(), 1, 2, &policy),
               InvalidArgument);
}

TEST(BlockPolicyContract, PolicyRequiresBlockMode) {
  AdvisorPolicy policy;
  std::vector<FloatArray> fields;
  fields.push_back(smooth_field(Shape(6, 4), 43));
  EXPECT_THROW(
      (void)parallel_compress(fields, rel_config(), 1, /*block_slabs=*/0,
                              &policy),
      InvalidArgument);
}

TEST(DefaultBlockSlabs, EightSlabsUnlessSlabsHoldUnder512Values) {
  EXPECT_EQ(default_block_slabs(1), 4096u);
  EXPECT_EQ(default_block_slabs(511), 9u);
  EXPECT_EQ(default_block_slabs(512), 8u);
  EXPECT_EQ(default_block_slabs(1260), 8u);
  EXPECT_THROW((void)default_block_slabs(0), InvalidArgument);
}

TEST(DefaultBlockSlabs, AdaptiveRankOneFieldIsNotCutIntoEightValueBlocks) {
  // A rank-1 slab is one value. Eight-value blocks cost more in block
  // headers than the codec saves: 12,500 blocks and a container larger
  // than the raw field.
  const FloatArray field = smooth_field(Shape(100000), 29);
  EngineRequest request;
  request.config = rel_config();
  request.adaptive = true;
  request.workers = 2;
  Bytes out;
  const EngineResult r = Engine().compress(field, request, out);
  EXPECT_LE(r.blocks, 25u);
  EXPECT_GT(r.ratio(), 1.0);
  EXPECT_EQ(read_block_index(out).block_slabs, 4096u);
}

TEST(LocalPipeline, AdaptiveModeRunsEndToEndAndReportsMix) {
  std::vector<std::string> names{"a", "b"};
  std::vector<FloatArray> fields = mixed_fields();
  LocalPipelineConfig config;
  config.compression = rel_config();
  config.workers = 2;
  config.adaptive = true;  // block_slabs takes default_block_slabs

  const LocalPipelineResult result =
      run_local_pipeline(names, fields, config);
  EXPECT_GT(result.adaptive.blocks, 0u);
  EXPECT_FALSE(result.adaptive.backend_blocks.empty());
  double worst_eb = 0.0;
  for (const auto& f : fields) {
    worst_eb = std::max(worst_eb, resolve_abs_eb(f, config.compression));
  }
  EXPECT_LE(result.max_error, worst_eb + 1e-12);
  for (const auto& blob : result.compression.blobs) {
    EXPECT_TRUE(is_block_container(blob));
  }
}

}  // namespace
}  // namespace ocelot
