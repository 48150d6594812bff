// End-to-end compressor tests: the error-bound invariant, round
// trips across backends/shapes/bounds, container robustness.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "datagen/datasets.hpp"

namespace ocelot {
namespace {

FloatArray smooth_test_field(const Shape& shape, std::uint64_t seed) {
  FloatArray data(shape);
  Rng rng(seed);
  const double f0 = rng.uniform(1.0, 3.0);
  const double f1 = rng.uniform(1.0, 3.0);
  const double f2 = rng.uniform(1.0, 3.0);
  const std::size_t n1 = shape.rank() >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = shape.rank() >= 3 ? shape.dim(2) : 1;
  auto vals = data.values();
  for (std::size_t i = 0; i < shape.dim(0); ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        const double x = static_cast<double>(i) / static_cast<double>(shape.dim(0));
        const double y = static_cast<double>(j) / static_cast<double>(n1);
        const double z = static_cast<double>(k) / static_cast<double>(n2);
        vals[(i * n1 + j) * n2 + k] = static_cast<float>(
            std::sin(6.28 * f0 * x) + std::cos(6.28 * f1 * y) +
            std::sin(6.28 * f2 * z) + 0.05 * rng.normal());
      }
    }
  }
  return data;
}

/// The core contract: max |orig - recon| <= eb, for every backend,
/// shape, and error bound.
class ErrorBoundSweep
    : public ::testing::TestWithParam<std::tuple<const char*, Shape, double>> {
};

TEST_P(ErrorBoundSweep, BoundHoldsAndRoundTrips) {
  const auto [backend, shape, eb] = GetParam();
  const FloatArray data = smooth_test_field(shape, 1234);

  CompressionConfig config;
  config.backend = backend;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = eb;

  const Bytes blob = compress(data, config);
  const FloatArray recon = decompress<float>(blob);

  ASSERT_EQ(recon.shape(), data.shape());
  const double max_err = max_abs_error<float>(data.values(), recon.values());
  EXPECT_LE(max_err, eb) << backend << " shape rank " << shape.rank();
}

INSTANTIATE_TEST_SUITE_P(
    BackendsShapesBounds, ErrorBoundSweep,
    ::testing::Combine(
        ::testing::Values("lorenzo", "sz2", "sz3-interp", "lorenzo2",
                          "multigrid"),
        ::testing::Values(Shape(1000), Shape(50, 60), Shape(20, 24, 28),
                          Shape(7, 11, 13)),
        ::testing::Values(1e-1, 1e-3, 1e-5)));

TEST(Compressor, SecondOrderLorenzoReproducesLinearTrendExactly) {
  // f(i,j) = 3 + 2i + 5j is in the null space of the order-2 residual,
  // so away from the zero-padded border every prediction is exact and
  // the field compresses to almost nothing.
  FloatArray data(Shape(64, 64));
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      data.at(i, j) = static_cast<float>(3.0 + 2.0 * i + 5.0 * j);
    }
  }
  CompressionConfig config;
  config.backend = "lorenzo2";
  config.eb = 1e-4;
  const RoundTripStats stats = measure_roundtrip(data, config);
  EXPECT_LE(stats.max_error, 1e-4);
  EXPECT_GT(stats.compression_ratio, 40.0);

  // Order 1 cannot cancel the gradient: order 2 must compress better.
  config.backend = "lorenzo";
  const RoundTripStats order1 = measure_roundtrip(data, config);
  EXPECT_GT(stats.compression_ratio, order1.compression_ratio);
}

TEST(Compressor, RelativeErrorBoundScalesWithRange) {
  FloatArray data = smooth_test_field(Shape(40, 40), 5);
  // Scale values by 1000: a value-range-relative bound must follow.
  for (float& v : data.values()) v *= 1000.0f;

  CompressionConfig config;
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-4;

  const double abs_eb = resolve_abs_eb(data, config);
  const ValueSummary s = summarize(data.values());
  EXPECT_NEAR(abs_eb, 1e-4 * s.range, 1e-9);

  const Bytes blob = compress(data, config);
  const FloatArray recon = decompress<float>(blob);
  EXPECT_LE(max_abs_error<float>(data.values(), recon.values()), abs_eb);
}

TEST(Compressor, ConstantFieldCompressesMassively) {
  FloatArray data(Shape(64, 64));
  for (float& v : data.values()) v = 3.14f;
  CompressionConfig config;
  config.eb = 1e-6;
  const RoundTripStats stats = measure_roundtrip(data, config);
  EXPECT_GT(stats.compression_ratio, 100.0);
  EXPECT_EQ(stats.max_error, 0.0);
}

TEST(Compressor, LargerBoundNeverCompressesWorse) {
  const FloatArray data = smooth_test_field(Shape(32, 32, 32), 7);
  CompressionConfig config;
  config.backend = "sz3-interp";
  double prev_ratio = 0.0;
  for (const double eb : {1e-6, 1e-4, 1e-2}) {
    config.eb = eb;
    const RoundTripStats stats = measure_roundtrip(data, config);
    EXPECT_GE(stats.compression_ratio, prev_ratio * 0.95)
        << "eb=" << eb;  // small tolerance for container overhead
    prev_ratio = stats.compression_ratio;
  }
}

TEST(Compressor, PsnrImprovesWithTighterBound) {
  const FloatArray data = smooth_test_field(Shape(48, 48), 8);
  CompressionConfig config;
  config.backend = "lorenzo";
  config.eb = 1e-2;
  const double psnr_loose = measure_roundtrip(data, config).psnr_db;
  config.eb = 1e-4;
  const double psnr_tight = measure_roundtrip(data, config).psnr_db;
  EXPECT_GT(psnr_tight, psnr_loose);
}

TEST(Compressor, DoubleTypeRoundTrip) {
  DoubleArray data(Shape(30, 30));
  Rng rng(9);
  for (double& v : data.values()) v = rng.normal(100.0, 5.0);
  CompressionConfig config;
  config.eb = 1e-4;
  const Bytes blob = compress(data, config);
  const DoubleArray recon = decompress<double>(blob);
  EXPECT_LE(max_abs_error<double>(data.values(), recon.values()), 1e-4);
}

TEST(Compressor, DtypeMismatchThrows) {
  const FloatArray data = smooth_test_field(Shape(16, 16), 10);
  CompressionConfig config;
  const Bytes blob = compress(data, config);
  EXPECT_THROW((void)decompress<double>(blob), InvalidArgument);
}

TEST(Compressor, InspectBlobReportsHeader) {
  const FloatArray data = smooth_test_field(Shape(20, 30), 11);
  CompressionConfig config;
  config.backend = "sz2";
  config.eb = 1e-3;
  const Bytes blob = compress(data, config);
  const BlobInfo info = inspect_blob(blob);
  EXPECT_FALSE(info.is_double);
  EXPECT_EQ(info.backend, "sz2");
  EXPECT_EQ(info.backend_id, 1);
  EXPECT_DOUBLE_EQ(info.abs_eb, 1e-3);
  EXPECT_EQ(info.shape, Shape(20, 30));
  EXPECT_EQ(info.raw_bytes, 20u * 30u * 4u);
  EXPECT_EQ(info.compressed_bytes, blob.size());
}

TEST(Compressor, CorruptMagicThrows) {
  const FloatArray data = smooth_test_field(Shape(16, 16), 12);
  Bytes blob = compress(data, CompressionConfig{});
  blob[0] = 'X';
  EXPECT_THROW((void)decompress<float>(blob), CorruptStream);
  EXPECT_THROW((void)inspect_blob(blob), CorruptStream);
}

TEST(Compressor, TruncatedBlobThrows) {
  const FloatArray data = smooth_test_field(Shape(16, 16), 13);
  Bytes blob = compress(data, CompressionConfig{});
  blob.resize(blob.size() / 2);
  EXPECT_THROW((void)decompress<float>(blob), CorruptStream);
}

TEST(Compressor, EmptyArrayThrows) {
  FloatArray data;
  EXPECT_THROW((void)compress(data, CompressionConfig{}), InvalidArgument);
}

TEST(Compressor, NonPositiveBoundThrows) {
  const FloatArray data = smooth_test_field(Shape(8, 8), 14);
  CompressionConfig config;
  config.eb = 0.0;
  EXPECT_THROW((void)compress(data, config), InvalidArgument);
}

TEST(Compressor, InterpBeatsLorenzoOnSmoothData) {
  // The SZ3-interp backend should achieve a better ratio than pure
  // Lorenzo on smooth fields (the reason the paper adopts SZ3).
  const FloatArray data = smooth_test_field(Shape(64, 64, 64), 15);
  CompressionConfig config;
  config.eb = 1e-3;
  config.backend = "lorenzo";
  const double cr_lorenzo = measure_roundtrip(data, config).compression_ratio;
  config.backend = "sz3-interp";
  const double cr_interp = measure_roundtrip(data, config).compression_ratio;
  EXPECT_GT(cr_interp, cr_lorenzo);
}

/// Error bound must hold on every synthetic application field too.
class DatasetErrorBound
    : public ::testing::TestWithParam<std::tuple<std::string, const char*>> {};

TEST_P(DatasetErrorBound, HoldsOnGeneratedFields) {
  const auto [app, backend] = GetParam();
  const auto fields = generate_application(app, 0.05, 99);
  ASSERT_FALSE(fields.empty());

  CompressionConfig config;
  config.backend = backend;
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;

  // Test the first two fields of each app to bound runtime.
  const std::size_t limit = std::min<std::size_t>(2, fields.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& field = fields[i];
    const double abs_eb = resolve_abs_eb(field.data, config);
    const Bytes blob = compress(field.data, config);
    const FloatArray recon = decompress<float>(blob);
    EXPECT_LE(max_abs_error<float>(field.data.values(), recon.values()),
              abs_eb)
        << app << "/" << field.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndBackends, DatasetErrorBound,
    ::testing::Combine(::testing::Values("CESM", "Miranda", "ISABEL", "Nyx",
                                         "RTM", "QMCPACK"),
                       ::testing::Values("sz3-interp", "sz2", "multigrid")));

TEST(StreamingBlobPath, CompressIntoMatchesCompressByteForByte) {
  // The sink entry point appends after existing content and produces
  // exactly the wrapper's bytes — the wire-format invariant of the
  // zero-copy refactor, for every registered backend.
  const FloatArray data = smooth_test_field(Shape(13, 9, 7), 77);
  for (const std::string& backend : registered_backend_names()) {
    CompressionConfig config;
    config.backend = backend;
    config.eb_mode = EbMode::kValueRangeRel;
    config.eb = 1e-3;
    const Bytes reference = compress(data, config);

    Bytes buf = {0x55, 0x66};  // pre-existing bytes survive
    ByteSink sink(buf);
    compress_into(data, config, sink);
    ASSERT_EQ(buf.size(), 2 + reference.size()) << backend;
    EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                           buf.begin() + 2))
        << backend;
  }
}

TEST(StreamingBlobPath, DecompressIntoMatchesDecompress) {
  const FloatArray data = smooth_test_field(Shape(21, 11), 78);
  CompressionConfig config;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 1e-3;
  const Bytes blob = compress(data, config);

  const FloatArray fresh = decompress<float>(blob);
  // Dirty caller storage is overwritten with exactly decompress's values.
  std::vector<float> storage(data.size(), -1.0f);
  decompress_into<float>(blob, data.shape(), storage);
  EXPECT_EQ(storage, fresh.vector());

  // A shape other than the declared one is rejected before decoding,
  // even when the element counts agree: the storage stays untouched.
  std::vector<float> other(data.size(), -1.0f);
  EXPECT_THROW(decompress_into<float>(blob, Shape(11, 21), other),
               CorruptStream);
  EXPECT_EQ(other, std::vector<float>(data.size(), -1.0f));
  // Storage that does not fit the shape is a caller error.
  std::vector<float> short_storage(data.size() - 1);
  EXPECT_THROW(decompress_into<float>(blob, data.shape(), short_storage),
               InvalidArgument);
}

}  // namespace
}  // namespace ocelot
