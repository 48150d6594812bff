// Robustness / failure-injection tests: non-finite inputs and
// adversarially corrupted blobs. The contract: corrupted input either
// throws a typed error or decodes to *something* — never crashes or
// hangs — and non-finite samples survive round trips verbatim.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "codec/lossless.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"

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
    BlockContainerWriter writer(2);
    writer.append_block(blob);
    const Bytes container = writer.finish(Shape(2, 2));
    EXPECT_THROW((void)decompress_block(container, 0), CorruptStream)
        << backend;
    EXPECT_THROW((void)block_decompress(container, 2), CorruptStream)
        << backend;
  }
}

TEST(HostileHeader, BlockHeaderLargerThanItsSlabRejectedBeforeDecoding) {
  // A sealed block whose own header claims 4M elements inside a 2x2
  // container: the parallel decoder checks the header against the
  // container's plan before sizing its output from it.
  FloatArray data(Shape(2, 2));
  const Bytes blob =
      with_shape(compress(data, CompressionConfig{}), Shape(1 << 12, 1 << 10));
  BlockContainerWriter writer(2);
  writer.append_block(blob);
  const Bytes container = writer.finish(Shape(2, 2));
  try {
    (void)block_decompress(container, 1);
    FAIL() << "expected CorruptStream";
  } catch (const CorruptStream& e) {
    EXPECT_NE(std::string(e.what()).find("does not match the plan"),
              std::string::npos)
        << e.what();
  }
}

/// A blob over `shape` whose codes section is `codes_section` and whose
/// raw section is empty, written through the default lorenzo path's
/// section layout.
Bytes blob_with_codes(const Shape& shape, std::uint8_t entropy_id,
                      const Bytes& codes_section) {
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
  Bytes raw;
  ByteSink raw_sink(raw);
  lossless_compress({}, LosslessBackend::kNone, raw_sink);
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

}  // namespace
}  // namespace ocelot
