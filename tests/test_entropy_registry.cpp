// Entropy-stage table and coder tests: table lookups, per-stage
// round-trip properties over code streams, packed-section dispatch,
// retired wire ids, and corrupt-stream rejection. The container/advisor
// integration of the stages is exercised further down in this file once
// the compressor plumbing is involved.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "codec/ans.hpp"
#include "codec/entropy.hpp"
#include "codec/huffman.hpp"
#include "codec/lossless.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/ndarray.hpp"
#include "common/rng.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "core/adaptive.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"

namespace ocelot {
namespace {

std::vector<std::vector<std::uint32_t>> code_corpus() {
  std::vector<std::vector<std::uint32_t>> corpus;
  corpus.push_back({});                                  // empty
  corpus.push_back({0});                                 // single symbol
  corpus.push_back({42});                                // single nonzero
  corpus.push_back(std::vector<std::uint32_t>(5000, 7));  // one-symbol run
  corpus.push_back({0xFFFFFFFFu, 0, 0xFFFFFFFFu});       // extreme values

  // Skewed quantization-like codes centered on a radius, the shape the
  // SZ pipelines emit.
  Rng skew_rng(0x5EED);
  std::vector<std::uint32_t> skewed(20000);
  for (auto& c : skewed) {
    const double g = skew_rng.normal(0.0, 3.0);
    c = static_cast<std::uint32_t>(32768 + static_cast<int>(g));
  }
  corpus.push_back(std::move(skewed));

  // Uniform random over a large alphabet (stress for table builders).
  Rng wide_rng(0x71DE);
  std::vector<std::uint32_t> wide(8000);
  for (auto& c : wide) {
    c = static_cast<std::uint32_t>(wide_rng.uniform_int(0, 1 << 20));
  }
  corpus.push_back(std::move(wide));

  // Small alphabet with runs (RLE-friendly).
  std::vector<std::uint32_t> runs;
  for (int r = 0; r < 200; ++r) {
    runs.insert(runs.end(), 37, static_cast<std::uint32_t>(r % 5));
  }
  corpus.push_back(std::move(runs));
  return corpus;
}

TEST(EntropyTable, ListsLiveStagesInWireIdOrder) {
  const auto stages = entropy_stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0]->name, "huffman");
  EXPECT_EQ(stages[0]->wire_id, kEntropyHuffmanId);
  EXPECT_EQ(stages[1]->name, "ans");
  EXPECT_EQ(stages[1]->wire_id, kEntropyAnsId);
  for (const EntropyStageEntry* stage : stages) {
    EXPECT_NE(stage->stage, nullptr) << stage->name;
    EXPECT_FALSE(stage->description.empty()) << stage->name;
  }
}

TEST(EntropyTable, ByNameAndByIdAgree) {
  for (const EntropyStageEntry* s : entropy_stages()) {
    EXPECT_EQ(&entropy_stage_by_name(s->name), s);
    EXPECT_EQ(&entropy_stage_by_id(s->wire_id), s);
  }
  try {
    (void)entropy_stage_by_name("no-such-stage");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("huffman ans"), std::string::npos)
        << e.what();
  }
  // Ids 1-2 are the legacy chain's lossless byte, not stages of their
  // own; 200 was never assigned.
  for (const std::uint8_t id :
       {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{6}, std::uint8_t{200}}) {
    EXPECT_THROW((void)entropy_stage_by_id(id), CorruptStream)
        << "id " << static_cast<int>(id);
  }
}

TEST(EntropyStage, CodeRoundTripPerStage) {
  for (const EntropyStageEntry* stage : entropy_stages()) {
    for (const auto& codes : code_corpus()) {
      Bytes buf;
      ByteSink sink(buf);
      stage->stage->encode_into(codes, sink);
      std::vector<std::uint32_t> back;
      stage->stage->decode_into(buf, codes.size(), back);
      EXPECT_EQ(back, codes) << stage->name << " n=" << codes.size();
    }
  }
}

TEST(EntropyStage, PackedSectionDispatchRoundTrips) {
  for (const EntropyStageEntry* stage : entropy_stages()) {
    for (const auto& codes : code_corpus()) {
      Bytes buf;
      ByteSink sink(buf);
      entropy_encode_codes(codes, histogram_symbols(codes), *stage,
                           LosslessBackend::kLzb, sink);
      ASSERT_FALSE(buf.empty());
      if (stage->wire_id == kEntropyHuffmanId) {
        // Legacy chain: leading byte is the lossless backend id.
        EXPECT_EQ(buf[0], static_cast<std::uint8_t>(LosslessBackend::kLzb));
      } else {
        EXPECT_EQ(buf[0], stage->wire_id);
      }
      std::vector<std::uint32_t> back;
      entropy_decode_codes_into(buf, codes.size(), back);
      EXPECT_EQ(back, codes) << stage->name;
    }
  }
}

TEST(EntropyStage, AllDistinctSymbolsDecodeUnderTheSectionBound) {
  // The worst case for the stream-size bounds the decoders enforce:
  // every symbol distinct and spread over the u32 range (5-byte table
  // deltas), through every stage and lossless backend, bounded by
  // exactly n symbols. 40000 distinct symbols also push ans onto its
  // varint fallback.
  for (const std::size_t n : {1u, 2u, 300u, 40000u}) {
    std::vector<std::uint32_t> codes(n);
    for (std::size_t i = 0; i < n; ++i) {
      codes[i] = static_cast<std::uint32_t>(i * 2654435761u);  // a bijection
    }
    Bytes huffman;
    ByteSink huffman_sink(huffman);
    huffman_encode(codes, huffman_sink);
    EXPECT_LE(huffman.size(), huffman_max_stream_bytes(n)) << "n=" << n;
    Bytes ans;
    ByteSink ans_sink(ans);
    ans_encode(codes, ans_sink);
    EXPECT_LE(ans.size(), ans_max_stream_bytes(n)) << "n=" << n;

    for (const EntropyStageEntry* stage : entropy_stages()) {
      for (const auto lossless : {LosslessBackend::kNone, LosslessBackend::kLzb,
                                  LosslessBackend::kRleLzb}) {
        Bytes buf;
        ByteSink sink(buf);
        entropy_encode_codes(codes, histogram_symbols(codes), *stage, lossless,
                             sink);
        std::vector<std::uint32_t> back;
        entropy_decode_codes_into(buf, n, back);
        EXPECT_EQ(back, codes)
            << stage->name << " " << to_string(lossless) << " n=" << n;
      }
    }
  }
}

TEST(EntropyStage, HuffmanStageMatchesLegacyChainBytes) {
  // Stage 0 must reproduce the pre-registry writer bit for bit — the
  // property the golden blobs pin end to end — both through the
  // packed-section dispatch and through the stage itself.
  const auto corpus = code_corpus();
  const EntropyStageEntry& stage = entropy_stage_by_name("huffman");
  for (const auto& codes : corpus) {
    for (const LosslessBackend lossless :
         {LosslessBackend::kNone, LosslessBackend::kLzb,
          LosslessBackend::kRleLzb}) {
      Bytes legacy;
      {
        BytesWriter huff;
        huffman_encode(codes, huff);
        ByteSink sink(legacy);
        lossless_compress(huff.bytes(), lossless, sink);
      }
      Bytes via_dispatch;
      ByteSink sink(via_dispatch);
      entropy_encode_codes(codes, histogram_symbols(codes), stage, lossless,
                           sink);
      EXPECT_EQ(via_dispatch, legacy)
          << "n=" << codes.size() << " lossless=" << to_string(lossless);
      if (lossless == LosslessBackend::kLzb) {
        Bytes via_stage;
        ByteSink stage_sink(via_stage);
        stage.stage->encode_into(codes, stage_sink);
        EXPECT_EQ(via_stage, legacy) << "n=" << codes.size();
      }
    }
  }
}

TEST(EntropyStage, RejectsCorruptStreams) {
  std::vector<std::uint32_t> codes(512);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint32_t>(i % 19);
  }

  // Empty and unknown-id sections.
  std::vector<std::uint32_t> out;
  EXPECT_THROW(entropy_decode_codes_into({}, codes.size(), out),
               CorruptStream);
  Bytes unknown{0x77, 1, 2, 3};
  EXPECT_THROW(entropy_decode_codes_into(unknown, codes.size(), out),
               CorruptStream);

  for (const EntropyStageEntry* stage : entropy_stages()) {
    Bytes buf;
    ByteSink sink(buf);
    entropy_encode_codes(codes, histogram_symbols(codes), *stage,
                         LosslessBackend::kLzb, sink);
    // Every strict prefix must be rejected, never mis-decode silently
    // into the original stream.
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, buf.size() / 2,
                                  buf.size() - 1}) {
      std::vector<std::uint32_t> partial;
      try {
        entropy_decode_codes_into(
            std::span<const std::uint8_t>(buf).first(cut), codes.size(),
            partial);
        EXPECT_NE(partial, codes) << stage->name << " cut=" << cut;
      } catch (const CorruptStream&) {
        // expected for most cuts
      }
    }
  }

  // Targeted ANS corruption: a frequency table that does not fill the
  // scale, and a dangling final state.
  {
    Bytes buf;
    ByteSink sink(buf);
    ans_encode(codes, sink);
    Bytes broken = buf;
    broken[broken.size() / 2] ^= 0xA5;  // perturb the state stream
    std::vector<std::uint32_t> back;
    try {
      ans_decode_into(broken, codes.size(), back);
      EXPECT_NE(back, codes);
    } catch (const CorruptStream&) {
    }
  }
}

// ---------------------------------------------------------------------
// Compressor / container / advisor integration.

FloatArray wavy_array(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray data(shape);
  std::size_t i = 0;
  for (float& v : data.values()) {
    v = static_cast<float>(std::sin(static_cast<double>(i++) * 0.21) +
                           rng.normal(0.0, 0.05));
  }
  return data;
}

TEST(EntropyCompressor, BackendStageSweepHoldsBoundAndInspects) {
  const std::vector<std::string> backends = {"lorenzo", "sz3-interp",
                                             "multigrid"};
  const FloatArray data = wavy_array(Shape(12, 9, 5), 0xD7);
  for (const std::string& backend : backends) {
    for (const EntropyStageEntry* stage : entropy_stages()) {
      CompressionConfig config;
      config.backend = backend;
      config.eb_mode = EbMode::kAbsolute;
      config.eb = 1e-3;
      config.entropy = stage->name;
      const Bytes blob = compress(data, config);
      // The default stage keeps the OCZ1 magic (bit-compatible with
      // every pre-registry reader); anything else switches to OCZ2.
      ASSERT_GE(blob.size(), 7u);
      EXPECT_EQ(std::memcmp(blob.data(),
                            stage->wire_id == 0 ? "OCZ1" : "OCZ2", 4),
                0)
          << backend << "/" << stage->name;
      const BlobInfo info = inspect_blob(blob);
      EXPECT_EQ(info.backend, backend);
      EXPECT_EQ(info.entropy, stage->name);
      EXPECT_EQ(info.entropy_id, stage->wire_id);
      const FloatArray back = decompress(blob);
      ASSERT_EQ(back.size(), data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_LE(std::abs(static_cast<double>(data[i]) -
                           static_cast<double>(back[i])),
                  1e-3 + 1e-12)
            << backend << "/" << stage->name << " element " << i;
      }
    }
  }
}

/// Byte length of the varint encoding ByteSink::put_varint emits, used
/// to locate index bytes inside a hand-addressed container.
std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 128) {
    v >>= 7;
    ++n;
  }
  return n;
}

Bytes mixed_stage_container(const FloatArray& field, std::size_t block_slabs,
                            const std::vector<std::string>& stages) {
  const auto spans = plan_blocks(field.shape().dim(0), block_slabs);
  std::vector<Bytes> payloads;
  for (std::size_t b = 0; b < spans.size(); ++b) {
    std::vector<float> vals(
        field.values().begin() +
            static_cast<std::ptrdiff_t>(spans[b].slab_begin *
                                        (field.size() / field.shape().dim(0))),
        field.values().begin() +
            static_cast<std::ptrdiff_t>(
                (spans[b].slab_begin + spans[b].slab_count) *
                (field.size() / field.shape().dim(0))));
    CompressionConfig config;
    config.eb_mode = EbMode::kAbsolute;
    config.eb = 1e-3;
    config.entropy = stages[b % stages.size()];
    payloads.push_back(compress(
        FloatArray(block_shape(field.shape(), spans[b]), std::move(vals)),
        config));
  }
  return build_block_container(field.shape(), block_slabs,
                               {payloads.begin(), payloads.end()});
}

FloatArray sine_field(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray data(shape);
  std::size_t i = 0;
  for (float& v : data.values()) {
    v = static_cast<float>(std::sin(static_cast<double>(i++) * 0.05) +
                           rng.normal(0.0, 0.02));
  }
  return data;
}

/// Offset of block 0's index entry (its size varint) inside a v1.1 or
/// v1.2 container: magic(4) + version(1) + rank(1) + dim varints +
/// block_slabs + count.
std::size_t first_entry_offset(const BlockContainerInfo& info) {
  std::size_t offset = 4 + 1 + 1;
  for (int d = 0; d < info.shape.rank(); ++d)
    offset += varint_len(info.shape.dim(d));
  return offset + varint_len(info.block_slabs) +
         varint_len(info.blocks.size());
}

/// Index bytes a container spends beyond its per-block size varints:
/// magic, version, shape, block size, count, and each entry's CRC and
/// id bytes. Equal payload sizes are not needed to compare two indexes.
std::size_t fixed_index_bytes(const BlockContainerInfo& info) {
  std::size_t size_varints = 0;
  for (const auto& entry : info.blocks) size_varints += varint_len(entry.size);
  return info.blocks.front().offset - size_varints;
}

TEST(BlockContainerV12, MixedStagesRoundTripAndIndexNamesEveryBlock) {
  const FloatArray field = sine_field(Shape(16, 7, 5), 0xB12);
  const Bytes container = mixed_stage_container(field, 4, {"huffman", "ans"});

  const BlockContainerInfo info = read_block_index(container);
  ASSERT_TRUE(info.has_backend_ids);
  ASSERT_TRUE(info.has_entropy_ids);
  ASSERT_EQ(info.blocks.size(), 4u);
  const std::uint8_t expect_ids[] = {kEntropyHuffmanId, kEntropyAnsId,
                                     kEntropyHuffmanId, kEntropyAnsId};
  for (std::size_t b = 0; b < info.blocks.size(); ++b) {
    EXPECT_EQ(info.blocks[b].entropy_id, expect_ids[b]) << "block " << b;
    const FloatArray block = decompress_block(container, b);
    EXPECT_EQ(block.shape().dim(0), 4u);
  }

  // All-default payloads must keep the v1.1 index (no entropy bytes),
  // so stage-unaware pipelines emit the exact bytes they always did.
  const Bytes plain =
      mixed_stage_container(field, 4, {"huffman"});
  const BlockContainerInfo plain_info = read_block_index(plain);
  EXPECT_TRUE(plain_info.has_backend_ids);
  EXPECT_FALSE(plain_info.has_entropy_ids);
  for (const auto& entry : plain_info.blocks) EXPECT_EQ(entry.entropy_id, 0);
  // v1.2 spends exactly one index byte per block on the entropy id.
  ASSERT_EQ(plain_info.blocks.size(), info.blocks.size());
  EXPECT_EQ(fixed_index_bytes(info),
            fixed_index_bytes(plain_info) + info.blocks.size());
}

TEST(BlockContainerV12, EveryPrefixTruncationRejected) {
  const FloatArray field = sine_field(Shape(8, 5, 3), 0xC4);
  const Bytes container = mixed_stage_container(field, 4, {"ans", "huffman"});
  for (std::size_t cut = 0; cut < container.size(); ++cut) {
    const std::span<const std::uint8_t> prefix{container.data(), cut};
    EXPECT_THROW(
        {
          const BlockContainerInfo info = read_block_index(prefix);
          for (std::size_t b = 0; b < info.blocks.size(); ++b) {
            (void)decompress_block(prefix, b);
          }
        },
        Error)
        << "prefix " << cut << " of " << container.size();
  }
}

TEST(BlockContainerV12, IndexEntropyByteMismatchRejected) {
  const FloatArray field = sine_field(Shape(8, 5, 3), 0xC5);
  Bytes container = mixed_stage_container(field, 4, {"ans", "huffman"});
  const BlockContainerInfo info = read_block_index(container);
  ASSERT_TRUE(info.has_entropy_ids);

  // Block 0's index entropy byte follows its varint size, crc(4) and
  // backend(1).
  const std::size_t offset =
      first_entry_offset(info) + varint_len(info.blocks[0].size) + 4 + 1;
  ASSERT_EQ(container[offset], kEntropyAnsId);

  container[offset] = kEntropyHuffmanId;  // lies about block 0's stage
  const BlockContainerInfo tampered = read_block_index(container);
  EXPECT_THROW((void)block_payload(container, tampered, 0), CorruptStream);
  // Block 1's entry is untouched and still verifies.
  (void)block_payload(container, tampered, 1);
}

/// Rewrites an OCZ2 blob as if the stage with wire id `id` had written
/// it: the header's entropy byte and the leading byte of every codes
/// section (tags ending in "codes"). decompress dispatches on the
/// section byte and never reads the header's, so both must change.
void restamp_entropy_id(std::span<std::uint8_t> blob, std::uint8_t id) {
  ASSERT_EQ(std::memcmp(blob.data(), "OCZ2", 4), 0);
  BytesReader in(blob);
  (void)in.get_bytes(4);
  (void)in.get<std::uint8_t>();  // dtype
  (void)in.get<std::uint8_t>();  // backend id
  blob[blob.size() - in.remaining()] = id;
  (void)in.get<std::uint8_t>();  // entropy id
  (void)in.get<double>();        // abs eb
  for (int i = 0; i < 3; ++i) (void)in.get_varint();  // radius, stride, block
  const int rank = in.get<std::uint8_t>();
  for (int d = 0; d < rank; ++d) (void)in.get_varint();
  const std::uint64_t sections = in.get_varint();
  std::size_t restamped = 0;
  for (std::uint64_t i = 0; i < sections; ++i) {
    const std::string tag = in.get_string();
    const std::span<const std::uint8_t> payload = in.get_blob();
    if (!tag.ends_with("codes")) continue;
    ASSERT_FALSE(payload.empty()) << tag;
    blob[static_cast<std::size_t>(payload.data() - blob.data())] = id;
    ++restamped;
  }
  ASSERT_GT(restamped, 0u);
}

/// `fn` must throw a CorruptStream whose message names `stage`.
template <typename Fn>
void expect_names_removed_stage(Fn&& fn, const std::string& stage,
                                const std::string& where) {
  try {
    fn();
    ADD_FAILURE() << where << ": expected CorruptStream naming " << stage;
  } catch (const CorruptStream& e) {
    EXPECT_NE(std::string(e.what()).find(stage), std::string::npos)
        << where << ": " << e.what();
  }
}

TEST(EntropyTable, RetiredIdsFailByName) {
  const struct {
    std::uint8_t id;
    const char* name;
  } retired[] = {{kRetiredBwtMtfId, "bwt-mtf"}, {kRetiredLzwId, "lzw"}};
  const FloatArray field = sine_field(Shape(12, 7, 5), 0x4E7);
  for (const auto& [id, name] : retired) {
    expect_names_removed_stage(
        [&] { (void)entropy_stage_by_id(id); }, name, "by_id");
    const Bytes section{id, 1, 2, 3};
    std::vector<std::uint32_t> codes;
    expect_names_removed_stage(
        [&] { entropy_decode_codes_into(section, 16, codes); }, name,
        "section");

    // An OCZ2 blob as the removed stage wrote it, for every backend.
    for (const std::string& backend : registered_backend_names()) {
      CompressionConfig config;
      config.backend = backend;
      config.eb_mode = EbMode::kAbsolute;
      config.eb = 1e-3;
      config.entropy = "ans";
      Bytes blob = compress(field, config);
      restamp_entropy_id(blob, id);
      expect_names_removed_stage([&] { (void)decompress(blob); }, name,
                                 backend + " decompress");
      expect_names_removed_stage([&] { (void)inspect_blob(blob); }, name,
                                 backend + " inspect_blob");
    }

    // An OCB1 v1.2 block: its payload, its index entropy byte, and its
    // CRC, resealed so the checksum does not reject the block before
    // any stage is consulted.
    Bytes container = mixed_stage_container(field, 4, {"ans", "huffman"});
    const BlockContainerInfo info = read_block_index(container);
    ASSERT_TRUE(info.has_entropy_ids);
    const BlockIndexEntry& entry = info.blocks[0];
    const std::span<std::uint8_t> payload =
        std::span<std::uint8_t>(container).subspan(entry.offset, entry.size);
    restamp_entropy_id(payload, id);
    const std::size_t crc_at =
        first_entry_offset(info) + varint_len(entry.size);
    const std::uint32_t crc = crc32(payload);
    std::memcpy(container.data() + crc_at, &crc, sizeof(crc));
    ASSERT_EQ(container[crc_at + 4 + 1], kEntropyAnsId);
    container[crc_at + 4 + 1] = id;
    expect_names_removed_stage([&] { (void)decompress_block(container, 0); },
                               name, "decompress_block");
    // The untouched huffman block still decodes.
    EXPECT_EQ(decompress_block(container, 1).shape().dim(0), 4u);
  }
}

TEST(AdaptiveEntropy, StageDuelingIsByteDeterministicAcrossWorkers) {
  const FloatArray field = sine_field(Shape(30, 11, 6), 0xAD);
  CompressionConfig config;
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;
  AdaptiveOptions options;
  options.backends = {"lorenzo", "sz3-interp"};
  options.entropy_stages = {"huffman", "ans"};

  Bytes reference;
  for (const std::size_t workers : {1u, 2u, 5u}) {
    AdvisorPolicy policy(options);
    const BlockCompressResult r =
        block_compress(field, config, workers, 4, &policy);
    if (reference.empty()) {
      reference = r.container;
    } else {
      EXPECT_EQ(r.container, reference) << "workers=" << workers;
    }
    const AdaptiveSummary summary = policy.summary();
    EXPECT_EQ(summary.blocks, r.n_blocks);
    for (const AdaptiveDecisionRecord& record : policy.log()) {
      EXPECT_FALSE(record.entropy.empty());
    }
  }
}

TEST(AdaptiveEntropy, ForcedStageLandsInContainerAndHoldsBound) {
  const FloatArray field = sine_field(Shape(16, 9, 4), 0xF0);
  CompressionConfig config;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 2e-3;
  AdaptiveOptions options;
  options.entropy_stages = {"ans"};

  AdvisorPolicy policy(options);
  const BlockCompressResult r = block_compress(field, config, 2, 4, &policy);
  const BlockContainerInfo info = read_block_index(r.container);
  ASSERT_TRUE(info.has_entropy_ids);
  for (const auto& entry : info.blocks)
    EXPECT_EQ(entry.entropy_id, kEntropyAnsId);
  const AdaptiveSummary summary = policy.summary();
  ASSERT_EQ(summary.entropy_blocks.size(), 1u);
  EXPECT_EQ(summary.entropy_blocks.front().first, "ans");
  EXPECT_EQ(summary.entropy_blocks.front().second, summary.blocks);

  const FloatArray back = block_decompress(r.container, 2).field;
  ASSERT_EQ(back.size(), field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    ASSERT_LE(std::abs(field[i] - back[i]), 2e-3 + 1e-12);
  }
}

}  // namespace
}  // namespace ocelot
