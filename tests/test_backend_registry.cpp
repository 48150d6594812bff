// Backend-table tests: wire ids, cross-backend round-trip properties,
// inspect_blob agreement, unknown/corrupt backend ids, bit-exact
// backward compatibility with pre-table blobs (golden bytes), and
// table-driven advisor candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "compressor/kernels/quant_kernels.hpp"
#include "compressor/multigrid.hpp"
#include "core/advisor.hpp"
#include "core/local_pipeline.hpp"
#include "features/features.hpp"

#include "golden_blobs.inc"

namespace ocelot {
namespace {

constexpr const char* kBuiltinNames[] = {"lorenzo", "sz2", "sz3-interp",
                                         "lorenzo2", "multigrid"};

template <typename T>
NdArray<T> smooth_field(const Shape& shape) {
  NdArray<T> data(shape);
  auto v = data.values();
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = static_cast<double>(i);
    v[i] = static_cast<T>(std::sin(0.05 * x) + 0.3 * std::cos(0.013 * x));
  }
  return data;
}

/// The 6x7x5 field the golden blobs were captured from (see
/// golden_blobs.inc; must stay bit-identical to the capture program).
FloatArray golden_field() {
  FloatArray data(Shape(6, 7, 5));
  auto v = data.values();
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = static_cast<double>(i);
    v[i] = static_cast<float>(std::sin(0.1 * x) + 0.01 * std::cos(1.3 * x));
  }
  return data;
}

TEST(BackendTable, ListsBuiltinFamiliesAtTheirWireIds) {
  // Legacy Pipeline enum values 0-3 keep their wire ids forever, and
  // the table's row index is the id.
  EXPECT_EQ(registered_backend_names(),
            std::vector<std::string>(std::begin(kBuiltinNames),
                                     std::end(kBuiltinNames)));
  const std::span<const BackendEntry> table = backends();
  for (std::size_t id = 0; id < table.size(); ++id) {
    EXPECT_EQ(table[id].wire_id, id);
    EXPECT_FALSE(table[id].description.empty()) << table[id].name;
    EXPECT_EQ(&backend_by_name(table[id].name), &table[id]);
    EXPECT_EQ(&backend_by_id(static_cast<std::uint8_t>(id)), &table[id]);
  }
  EXPECT_THROW((void)backend_by_id(static_cast<std::uint8_t>(table.size())),
               CorruptStream);
}

TEST(BackendTable, UnknownNameThrowsListingTheNames) {
  try {
    (void)backend_by_name("zfp");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "lorenzo sz2 sz3-interp lorenzo2 multigrid"),
              std::string::npos)
        << e.what();
  }
  CompressionConfig config;
  config.backend = "zfp";
  const FloatArray data = smooth_field<float>(Shape(16, 16));
  EXPECT_THROW((void)compress(data, config), InvalidArgument);
}

/// Cross-backend property: every registered backend honors the
/// error-bound invariant for both dtypes across 1-D/2-D/3-D shapes,
/// and inspect_blob agrees with what the writer produced.
class BackendRoundTrip : public ::testing::TestWithParam<std::string> {};

template <typename T>
void roundtrip_case(const std::string& backend, const Shape& shape) {
  const NdArray<T> data = smooth_field<T>(shape);
  CompressionConfig config;
  config.backend = backend;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 1e-3;

  const Bytes blob = compress(data, config);
  const NdArray<T> recon = decompress<T>(blob);
  ASSERT_EQ(recon.shape(), shape);
  EXPECT_LE(max_abs_error<T>(data.values(), recon.values()), config.eb)
      << backend << " rank " << shape.rank();

  const BlobInfo info = inspect_blob(blob);
  EXPECT_EQ(info.backend, backend);
  EXPECT_EQ(info.backend_id, backend_by_name(backend).wire_id);
  EXPECT_EQ(info.is_double, sizeof(T) == 8);
  EXPECT_EQ(info.shape, shape);
  EXPECT_DOUBLE_EQ(info.abs_eb, config.eb);
  EXPECT_EQ(info.compressed_bytes, blob.size());
  EXPECT_EQ(info.raw_bytes, shape.size() * sizeof(T));
}

TEST_P(BackendRoundTrip, BoundHoldsAndInspectAgreesEveryDtypeAndRank) {
  const std::string backend = GetParam();
  for (const Shape& shape :
       {Shape(257), Shape(23, 31), Shape(9, 12, 11)}) {
    roundtrip_case<float>(backend, shape);
    roundtrip_case<double>(backend, shape);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, BackendRoundTrip,
                         ::testing::ValuesIn(registered_backend_names()));

TEST(BackendTable, UnknownBackendIdThrowsCorruptStream) {
  const FloatArray data = smooth_field<float>(Shape(12, 12));
  Bytes blob = compress(data, CompressionConfig{});
  // Header layout: magic[4], dtype u8, backend id u8.
  blob[5] = 0xee;
  EXPECT_THROW((void)decompress<float>(blob), CorruptStream);
  EXPECT_THROW((void)inspect_blob(blob), CorruptStream);
}

TEST(BackendTable, TruncatedHeaderThrowsCorruptStream) {
  const FloatArray data = smooth_field<float>(Shape(12, 12));
  Bytes blob = compress(data, CompressionConfig{});
  blob.resize(5);
  EXPECT_THROW((void)inspect_blob(blob), CorruptStream);
  EXPECT_THROW((void)decompress<float>(blob), CorruptStream);
}

/// Bit-exact backward compatibility: blobs written by the
/// pre-registry compressor (Pipeline enum ids 0-3) must decode under
/// the bound, and today's writer must reproduce them byte for byte.
struct GoldenCase {
  const char* backend;
  std::span<const unsigned char> blob;
};

TEST(BackendTable, PreRegistryBlobsDecodeBitExactly) {
  const FloatArray data = golden_field();
  const GoldenCase cases[] = {
      {"lorenzo", kGoldenLorenzo},
      {"sz2", kGoldenSz2},
      {"sz3-interp", kGoldenSz3Interp},
      {"lorenzo2", kGoldenLorenzo2},
  };
  for (const GoldenCase& c : cases) {
    const std::span<const std::uint8_t> golden{
        reinterpret_cast<const std::uint8_t*>(c.blob.data()), c.blob.size()};

    // Old blob decodes and honors the recorded bound.
    const FloatArray recon = decompress<float>(golden);
    EXPECT_LE(max_abs_error<float>(data.values(), recon.values()), 1e-3)
        << c.backend;
    const BlobInfo info = inspect_blob(golden);
    EXPECT_EQ(info.backend, c.backend);

    // Today's writer emits the identical bytes.
    CompressionConfig config;
    config.backend = c.backend;
    config.eb_mode = EbMode::kAbsolute;
    config.eb = 1e-3;
    const Bytes rewritten = compress(data, config);
    ASSERT_EQ(rewritten.size(), golden.size()) << c.backend;
    EXPECT_TRUE(std::equal(rewritten.begin(), rewritten.end(), golden.begin()))
        << c.backend;
  }
}

TEST(Multigrid, EndToEndThroughLocalPipeline) {
  std::vector<FloatArray> fields;
  fields.push_back(smooth_field<float>(Shape(24, 20, 18)));
  fields.push_back(smooth_field<float>(Shape(30, 25)));

  LocalPipelineConfig config;
  config.compression.backend = "multigrid";
  config.compression.eb_mode = EbMode::kValueRangeRel;
  config.compression.eb = 1e-3;
  config.workers = 2;

  const LocalPipelineResult result =
      run_local_pipeline({"a", "b"}, fields, config);
  double worst_bound = 0.0;
  for (const auto& field : fields) {
    worst_bound = std::max(worst_bound,
                           resolve_abs_eb(field, config.compression));
  }
  EXPECT_GT(result.compression.ratio(), 1.0);
  EXPECT_LE(result.max_error, worst_bound);
}

TEST(Multigrid, TightensCoarseLevels) {
  // The coarse quantizer uses eb/2, so coarse nodes must individually
  // sit within half the bound; spot-check via a pure-coarse recon: a
  // stride-aligned grid where every node is coarse.
  const FloatArray data = smooth_field<float>(Shape(17, 17));
  CompressionConfig config;
  config.backend = "multigrid";
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 1e-2;
  ASSERT_EQ(choose_anchor_stride(data.shape()), 16u);
  const Bytes blob = compress(data, config);
  const FloatArray recon = decompress<float>(blob);
  for (std::size_t i = 0; i < 17; i += 16) {
    for (std::size_t j = 0; j < 17; j += 16) {
      EXPECT_LE(std::abs(data.at(i, j) - recon.at(i, j)),
                config.eb / kMultigridCoarseTighten + 1e-12);
    }
  }
}

TEST(Advisor, TableCandidatesIncludeMultigridAndItCanWin) {
  const FloatArray data = smooth_field<float>(Shape(40, 40));

  // Candidates enumerated from the backend table: one entry per
  // backend per bound.
  const std::vector<CompressionConfig> candidates =
      enumerate_candidates({1e-3}, EbMode::kAbsolute);
  ASSERT_GE(candidates.size(), 5u);
  EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                          [](const CompressionConfig& c) {
                            return c.backend == "multigrid";
                          }));

  // Train a model that prefers the multigrid feature id, using the
  // exact feature vectors the advisor will assemble for this field.
  const DataFeatures df = extract_data_features(data);
  const CompressorFeatures cf = extract_compressor_features(data, 1e-3, 100);
  std::vector<QualitySample> samples;
  for (const BackendEntry& backend : backends()) {
    for (int rep = 0; rep < 4; ++rep) {
      QualitySample s;
      s.features = assemble_feature_vector(1e-3, backend.wire_id, df, cf);
      s.compression_ratio = backend.name == "multigrid" ? 24.0 : 6.0;
      s.compress_seconds = 0.01;
      s.psnr_db = 85.0;
      s.n_elements = data.size();
      samples.push_back(s);
    }
  }
  const QualityModel model = QualityModel::train(samples);

  QualityConstraints constraints;
  constraints.min_psnr_db = 60.0;
  const Advice advice = advise(model, data, candidates, constraints, 100);
  ASSERT_EQ(advice.options.size(), candidates.size());
  ASSERT_TRUE(advice.best_index.has_value());
  EXPECT_EQ(advice.options[*advice.best_index].config.backend, "multigrid");
}

}  // namespace
}  // namespace ocelot
