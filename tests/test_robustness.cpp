// Robustness / failure-injection tests: non-finite inputs and
// adversarially corrupted blobs. The contract: corrupted input either
// throws a typed error or decodes to *something* — never crashes or
// hangs — and non-finite samples survive round trips verbatim.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "codec/entropy.hpp"
#include "codec/huffman.hpp"
#include "codec/lossless.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "core/adaptive.hpp"
#include "core/stream_codec.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"
#include "io/dataset_file.hpp"

namespace ocelot {
namespace {

FloatArray masked_field(std::uint64_t seed) {
  // Scientific fields often carry NaN fill values over masked regions
  // (e.g., ocean points in land-only fields).
  FloatArray data(Shape(24, 24));
  Rng rng(seed);
  for (float& v : data.values()) {
    v = static_cast<float>(std::sin(rng.uniform(0.0, 6.28)));
  }
  data.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  data.at(5, 7) = std::numeric_limits<float>::quiet_NaN();
  data.at(12, 3) = std::numeric_limits<float>::infinity();
  data.at(20, 20) = -std::numeric_limits<float>::infinity();
  return data;
}

class NonFiniteSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(NonFiniteSweep, NonFiniteValuesSurviveVerbatim) {
  const FloatArray data = masked_field(11);
  CompressionConfig config;
  config.backend = GetParam();
  config.eb = 1e-3;

  const Bytes blob = compress(data, config);
  const FloatArray recon = decompress<float>(blob);
  EXPECT_TRUE(std::isnan(recon.at(0, 0)));
  EXPECT_TRUE(std::isnan(recon.at(5, 7)));
  EXPECT_TRUE(std::isinf(recon.at(12, 3)));
  EXPECT_TRUE(std::isinf(recon.at(20, 20)));

  // Finite points near the NaNs must still respect the bound.
  std::size_t checked = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::isfinite(data[i]) && std::isfinite(recon[i])) {
      EXPECT_LE(std::abs(data[i] - recon[i]), 1e-3 + 1e-6);
      ++checked;
    }
  }
  EXPECT_GT(checked, data.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, NonFiniteSweep,
                         ::testing::Values("lorenzo", "sz2", "sz3-interp",
                                           "multigrid"));

/// Fuzz: random single-byte mutations of valid blobs must never crash.
class BlobFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(BlobFuzz, MutatedBlobsNeverCrash) {
  FloatArray data(Shape(20, 20));
  Rng rng(13);
  for (float& v : data.values()) {
    v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  CompressionConfig config;
  config.backend = GetParam();
  config.eb = 1e-3;
  const Bytes blob = compress(data, config);

  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = blob;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(blob.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    try {
      const FloatArray out = decompress<float>(mutated);
      ++decoded;  // silently-consistent mutation: acceptable
    } catch (const Error&) {
      ++threw;  // typed rejection: acceptable
    }
  }
  EXPECT_EQ(threw + decoded, 300);
  // Most mutations should be detected as corruption.
  EXPECT_GT(threw, 100) << "decoded=" << decoded;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BlobFuzz,
                         ::testing::Values("lorenzo", "sz2", "sz3-interp",
                                           "multigrid"));

TEST(Robustness, TruncationSweepAlwaysThrowsOrDecodes) {
  FloatArray data(Shape(16, 16));
  Rng rng(14);
  for (float& v : data.values()) {
    v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const Bytes blob = compress(data, CompressionConfig{});
  // Every truncation length must be handled gracefully.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    Bytes cut(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)decompress<float>(cut);
    } catch (const Error&) {
      // expected for most lengths
    }
  }
  SUCCEED();
}

/// Rewrites the shape in an OCZ1/OCZ2 blob's header, keeping every
/// other byte (the varints may change length; nothing else points into
/// the header).
Bytes with_shape(const Bytes& blob, const Shape& shape) {
  BytesReader in(blob);
  const bool v2 = std::memcmp(blob.data(), "OCZ2", 4) == 0;
  (void)in.get_bytes(4 + 2 + (v2 ? 1 : 0));  // magic, dtype, ids
  (void)in.get<double>();
  for (int i = 0; i < 3; ++i) (void)in.get_varint();
  const std::size_t shape_at = blob.size() - in.remaining();
  const int rank = in.get<std::uint8_t>();
  for (int d = 0; d < rank; ++d) (void)in.get_varint();
  const std::size_t rest_at = blob.size() - in.remaining();

  Bytes out(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(shape_at));
  ByteSink sink(out);
  write_shape(sink, shape);
  out.insert(out.end(), blob.begin() + static_cast<std::ptrdiff_t>(rest_at),
             blob.end());
  return out;
}

TEST(HostileHeader, WrappingShapeRejectedByEveryReader) {
  // (2^63 + 1) x 2 wraps Shape::size() to 2, which once matched the
  // 2-element code stream and sent the hierarchy decode's anchor
  // store past the end of its array.
  FloatArray data(Shape(2, 2));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(i);
  const Shape wrapping((std::size_t{1} << 63) + 1, 2);
  for (const std::string& backend : registered_backend_names()) {
    CompressionConfig config;
    config.backend = backend;
    const Bytes blob = with_shape(compress(data, config), wrapping);
    EXPECT_THROW((void)inspect_blob(blob), CorruptStream) << backend;
    EXPECT_THROW((void)decompress<float>(blob), CorruptStream) << backend;

    // The same header inside an OCB1 block, sealed with a valid CRC so
    // the block reaches the codec.
    const Bytes container = build_block_container(Shape(2, 2), 2, {blob});
    EXPECT_THROW((void)decompress_block(container, 0), CorruptStream)
        << backend;
    EXPECT_THROW((void)block_decompress(container, 2), CorruptStream)
        << backend;
  }

  // An OCF1 field file (what every ocelotd compress request carries):
  // rank 1, 2^62 + 1 elements and a 4-byte payload. The element count
  // times 4 bytes wraps to 4, which once passed the payload size check.
  BytesWriter field;
  const std::uint8_t magic[] = {'O', 'C', 'F', '1'};
  field.put_bytes(magic);
  field.put_string("x");
  write_shape(field, Shape((std::size_t{1} << 62) + 1));
  const std::uint8_t payload[4] = {};
  field.put_blob(payload);
  const Bytes ocf = field.take();
  ASSERT_EQ(ocf.size(), 21u);
  EXPECT_THROW((void)load_field(ocf), CorruptStream);
}

TEST(HostileHeader, BlockHeaderLargerThanItsSlabRejectedBeforeDecoding) {
  // A sealed block whose own header claims 4M elements inside a 2x2
  // container: every OCB1 reader checks the header against the
  // container's plan before sizing or decoding anything from it.
  FloatArray data(Shape(2, 2));
  const Bytes blob =
      with_shape(compress(data, CompressionConfig{}), Shape(1 << 12, 1 << 10));
  const Bytes container = build_block_container(Shape(2, 2), 2, {blob});
  const auto expect_plan_mismatch = [](const char* reader, auto&& decode) {
    try {
      decode();
      ADD_FAILURE() << reader << ": expected CorruptStream";
    } catch (const CorruptStream& e) {
      EXPECT_NE(std::string(e.what()).find("does not match the plan"),
                std::string::npos)
          << reader << ": " << e.what();
    }
  };
  expect_plan_mismatch("block_decompress",
                       [&] { (void)block_decompress(container, 1); });
  expect_plan_mismatch("decompress_block",
                       [&] { (void)decompress_block(container, 0); });
  expect_plan_mismatch("stream_decompress", [&] {
    std::istringstream in(std::string(container.begin(), container.end()));
    std::ostringstream out;
    (void)stream_decompress(in, out);
  });
}

/// A blob over `shape` whose codes section is `codes_section` and whose
/// raw section is `raw_section` (empty when not given), written through
/// the default lorenzo path's section layout.
Bytes blob_with_codes(const Shape& shape, std::uint8_t entropy_id,
                      const Bytes& codes_section,
                      const Bytes& raw_section = {}) {
  BytesWriter out;
  const std::uint8_t magic1[] = {'O', 'C', 'Z', '1'};
  const std::uint8_t magic2[] = {'O', 'C', 'Z', '2'};
  out.put_bytes(entropy_id == 0 ? magic1 : magic2);
  out.put(std::uint8_t{0});  // float
  out.put(std::uint8_t{0});  // lorenzo
  if (entropy_id != 0) out.put(entropy_id);
  out.put(1e-3);
  out.put_varint(kDefaultQuantRadius);
  out.put_varint(kMaxAnchorStride);
  out.put_varint(kSz2BlockSize);
  write_shape(out, shape);
  SectionWriter sections(out);
  sections.add("codes", codes_section);
  Bytes raw = raw_section;
  if (raw.empty()) {
    ByteSink raw_sink(raw);
    lossless_compress({}, LosslessBackend::kNone, raw_sink);
  }
  sections.add("raw", raw);
  sections.finish();
  return out.take();
}

TEST(HostileHeader, CodeCountAboveTheShapeThrowsBeforeDecoding) {
  // One-symbol Huffman code claiming 2^27 symbols in a handful of
  // bytes, for a 4-element field: rejected by count, not after
  // decoding 512 MiB of codes.
  BytesWriter huffman;
  huffman.put_varint(std::uint64_t{1} << 27);
  huffman.put_varint(1);
  huffman.put_varint(7);  // symbol 7, zero-bit code
  huffman.put_varint(0);
  huffman.put_varint(0);  // empty payload
  Bytes huffman_section;
  ByteSink huffman_sink(huffman_section);
  lossless_compress(huffman.bytes(), LosslessBackend::kNone, huffman_sink);

  // The same claim through the ans stage (wire id 3).
  BytesWriter ans;
  ans.put_varint(std::uint64_t{1} << 27);
  ans.put(std::uint8_t{1});
  Bytes ans_section = {3};
  ByteSink ans_sink(ans_section);
  lossless_compress(ans.bytes(), LosslessBackend::kNone, ans_sink);

  for (const auto& [id, section] :
       {std::pair<std::uint8_t, const Bytes*>{0, &huffman_section},
        std::pair<std::uint8_t, const Bytes*>{3, &ans_section}}) {
    const Bytes blob = blob_with_codes(Shape(4), id, *section);
    try {
      (void)decompress<float>(blob);
      ADD_FAILURE() << "stage " << int{id} << ": expected CorruptStream";
    } catch (const CorruptStream& e) {
      EXPECT_NE(std::string(e.what()).find("134217728"), std::string::npos)
          << e.what();
    }
  }
}

TEST(HostileHeader, RawSectionClaimAboveTheShapeThrowsBeforeExpanding) {
  // A 4-element field whose codes are all zero-bin hits and whose raw
  // section is rle+lzb claiming 2^24 bytes in a dozen: rejected by the
  // raw-value bound (4 floats = 16 bytes), not after expanding 16 MiB.
  const std::vector<std::uint32_t> codes(4, kDefaultQuantRadius);
  Bytes codes_section;
  ByteSink codes_sink(codes_section);
  entropy_encode_codes(codes, histogram_symbols(codes),
                       entropy_stage_by_name("huffman"), LosslessBackend::kNone,
                       codes_sink);
  Bytes raw_section;
  ByteSink raw_sink(raw_section);
  lossless_compress(Bytes(std::size_t{1} << 24, 0x78),
                    LosslessBackend::kRleLzb, raw_sink);
  ASSERT_LT(raw_section.size(), 32u);

  const Bytes blob = blob_with_codes(Shape(4), 0, codes_section, raw_section);
  try {
    (void)decompress<float>(blob);
    FAIL() << "expected CorruptStream";
  } catch (const CorruptStream& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("16777216"), std::string::npos) << what;
    EXPECT_NE(what.find("the 16 allowed"), std::string::npos) << what;
  }
}

// --- seeded OCB1 mutation sweep ---------------------------------------

/// Where an OCB1 container's index keeps its varints (dims, block
/// slabs, block count, per-block lengths) and each block's CRC slot.
struct IndexLayout {
  struct Varint {
    std::size_t offset = 0;
    std::size_t length = 0;
    std::uint64_t value = 0;
  };
  BlockContainerInfo info;
  std::vector<Varint> varints;
  std::vector<std::size_t> crc_offsets;
};

IndexLayout index_layout(const Bytes& container) {
  IndexLayout layout;
  layout.info = read_block_index(container);
  BytesReader in(container);
  const auto at = [&] { return container.size() - in.remaining(); };
  const auto varint = [&] {
    const std::size_t offset = at();
    const std::uint64_t value = in.get_varint();
    layout.varints.push_back({offset, at() - offset, value});
  };
  (void)in.get_bytes(4);
  const std::uint8_t lead = in.get<std::uint8_t>();
  const int rank = layout.info.has_backend_ids ? in.get<std::uint8_t>() : lead;
  for (int d = 0; d < rank; ++d) varint();
  varint();  // block_slabs
  varint();  // block count
  for (std::size_t b = 0; b < layout.info.blocks.size(); ++b) {
    varint();  // payload length
    layout.crc_offsets.push_back(at());
    (void)in.get<std::uint32_t>();
    if (layout.info.has_backend_ids) (void)in.get<std::uint8_t>();
    if (layout.info.has_entropy_ids) (void)in.get<std::uint8_t>();
  }
  return layout;
}

std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi_inclusive) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi_inclusive)));
}

/// One mutant of `container`. The 4 magic bytes stay intact, so every
/// mutant takes the OCB1 path of each reader (OCZ blobs have their own
/// sweep, BlobFuzz).
Bytes mutate(const Bytes& container, const IndexLayout& layout, Rng& rng) {
  Bytes m = container;
  const auto at = [&](std::size_t offset) {
    return m.begin() + static_cast<std::ptrdiff_t>(offset);
  };
  const auto any_byte = [&](std::int64_t lo) {
    return static_cast<std::uint8_t>(rng.uniform_int(lo, 255));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:  // byte flip
      m[pick(rng, 4, m.size() - 1)] ^= any_byte(1);
      break;
    case 1:  // insert
      m.insert(at(pick(rng, 4, m.size())), any_byte(0));
      break;
    case 2:  // delete
      m.erase(at(pick(rng, 4, m.size() - 1)));
      break;
    case 3: {  // rewrite one index varint
      const auto& v = layout.varints[pick(rng, 0, layout.varints.size() - 1)];
      const std::uint64_t candidates[] = {
          0, 1, 2, v.value - 1, v.value + 1, v.value * 2, v.value / 2,
          std::uint64_t{1} << 22, std::uint64_t{1} << 40,
          std::uint64_t{1} << pick(rng, 1, 63)};
      BytesWriter enc;
      enc.put_varint(candidates[pick(rng, 0, std::size(candidates) - 1)]);
      m.erase(at(v.offset), at(v.offset + v.length));
      m.insert(at(v.offset), enc.bytes().begin(), enc.bytes().end());
      break;
    }
    default: {  // payload flips, CRC re-sealed so they reach the codecs
      const std::size_t b = pick(rng, 0, layout.info.blocks.size() - 1);
      const BlockIndexEntry& entry = layout.info.blocks[b];
      for (std::size_t f = pick(rng, 1, 4); f > 0; --f) {
        m[entry.offset + pick(rng, 0, entry.size - 1)] ^= any_byte(1);
      }
      const std::uint32_t crc = crc32(
          std::span<const std::uint8_t>(m).subspan(entry.offset, entry.size));
      std::memcpy(m.data() + layout.crc_offsets[b], &crc, sizeof(crc));
      break;
    }
  }
  return m;
}

/// What one reader made of one mutant: the decoded floats, or nullopt
/// when it threw a typed error. Any other exception fails the test.
using Outcome = std::optional<std::vector<float>>;

template <typename Fn>
Outcome typed_outcome(Fn&& decode) {
  try {
    return decode();
  } catch (const CorruptStream&) {
    return std::nullopt;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

Outcome whole_decode(const Bytes& m, std::size_t workers) {
  return typed_outcome(
      [&] { return block_decompress(m, workers).field.vector(); });
}

Outcome streamed_decode(const Bytes& m) {
  return typed_outcome([&] {
    std::istringstream in(std::string(m.begin(), m.end()));
    std::ostringstream out;
    (void)stream_decompress(in, out);
    const std::string bytes = out.str();
    std::vector<float> values(bytes.size() / sizeof(float));
    std::memcpy(values.data(), bytes.data(), values.size() * sizeof(float));
    return values;
  });
}

Outcome block_decode(const Bytes& m, std::size_t b) {
  return typed_outcome([&] { return decompress_block(m, b).vector(); });
}

/// Bitwise equality, so NaN payloads compare too.
bool same_floats(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(OcbMutation, ThreeReadersAgreeOnSeededMutants) {
  // Inputs: a fixed-backend executor container (v1.1 index), an
  // advisor container over huffman and ans (v1.2 index), and a
  // stream_compress container, over a random walk with spikes.
  FloatArray field(Shape(20, 9, 7));
  Rng rng(0x0CB1);
  double walk = 0.0;
  for (float& v : field.values()) {
    walk += rng.normal(0.0, 0.05);
    const double spike = rng.chance(0.2) ? rng.normal(0.0, 1.0) : 0.0;
    v = static_cast<float>(walk + spike);
  }
  CompressionConfig config;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 1e-3;
  config.backend = "lorenzo";
  std::vector<Bytes> inputs;
  inputs.push_back(block_compress(field, config, 2, 6).container);
  AdaptiveOptions options;
  options.entropy_stages = {"huffman", "ans"};
  AdvisorPolicy policy(options);
  inputs.push_back(block_compress(field, config, 2, 4, &policy).container);
  ASSERT_TRUE(read_block_index(inputs.back()).has_entropy_ids);
  {
    const auto* raw = reinterpret_cast<const char*>(field.values().data());
    std::istringstream in(std::string(raw, field.byte_size()));
    std::ostringstream out;
    StreamCompressConfig stream_config;
    stream_config.compression = config;
    stream_config.slab_dims = {9, 7};
    stream_config.block_slabs = 5;
    (void)stream_compress(in, out, stream_config);
    const std::string bytes = out.str();
    inputs.emplace_back(bytes.begin(), bytes.end());
  }

  constexpr int kMutantsPerInput = 1000;
  // ocelotd's frame cap refuses larger declared fields before decoding.
  constexpr std::size_t kMaxDecodedElements = std::size_t{1} << 22;
  std::size_t index_rejected = 0, too_large = 0, decoded = 0, rejected = 0;
  for (const Bytes& input : inputs) {
    const IndexLayout layout = index_layout(input);
    for (int trial = 0; trial < kMutantsPerInput; ++trial) {
      const Bytes m = mutate(input, layout, rng);
      std::optional<BlockContainerInfo> info;
      try {
        info = read_block_index(m);
      } catch (const CorruptStream&) {
      }
      if (info && info->shape.size() > kMaxDecodedElements) {
        ++too_large;
        continue;
      }
      const Outcome w1 = whole_decode(m, 1);
      const Outcome w3 = whole_decode(m, 3);
      const Outcome streamed = streamed_decode(m);
      if (!info) {
        // Every reader refuses what the index parser refuses.
        ++index_rejected;
        EXPECT_FALSE(w1 || w3 || streamed || block_decode(m, 0))
            << "trial " << trial;
        continue;
      }
      // A whole decode succeeds exactly when every block does, and each
      // block equals its slab of the whole.
      bool every_block = true;
      const auto spans = plan_blocks(info->shape.dim(0), info->block_slabs);
      const std::size_t slab_elems = info->shape.size() / info->shape.dim(0);
      for (std::size_t b = 0; b < spans.size(); ++b) {
        const Outcome block = block_decode(m, b);
        every_block = every_block && block.has_value();
        if (block && w1) {
          EXPECT_TRUE(same_floats(
              *block, std::span<const float>(*w1).subspan(
                          spans[b].slab_begin * slab_elems, block->size())))
              << "trial " << trial << " block " << b;
        }
      }
      EXPECT_EQ(w1.has_value(), every_block) << "trial " << trial;
      EXPECT_EQ(w3.has_value(), every_block) << "trial " << trial;
      EXPECT_EQ(streamed.has_value(), every_block) << "trial " << trial;
      if (w1 && w3 && streamed) {
        EXPECT_TRUE(same_floats(*w1, *w3)) << "trial " << trial;
        EXPECT_TRUE(same_floats(*w1, *streamed)) << "trial " << trial;
      }
      ++(every_block ? decoded : rejected);
    }
  }
  // The sweep must reach every outcome class.
  EXPECT_GT(index_rejected, 0u);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
  RecordProperty("index_rejected", static_cast<int>(index_rejected));
  RecordProperty("too_large", static_cast<int>(too_large));
  RecordProperty("decoded", static_cast<int>(decoded));
  RecordProperty("rejected", static_cast<int>(rejected));
}

}  // namespace
}  // namespace ocelot
