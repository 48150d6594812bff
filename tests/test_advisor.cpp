// Tests for the quality advisor (config selection under constraints).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "core/advisor.hpp"
#include "datagen/datasets.hpp"
#include "features/features.hpp"

namespace ocelot {
namespace {

/// Trains a small quality model on real round trips over generated
/// fields; shared across advisor tests.
const QualityModel& trained_model() {
  static const QualityModel model = [] {
    std::vector<QualitySample> samples;
    for (const char* app : {"CESM", "Miranda"}) {
      const auto fields = generate_application(app, 0.04, 7);
      for (const auto& field : fields) {
        const DataFeatures df = extract_data_features(field.data);
        for (const double eb : {1e-5, 1e-4, 1e-3, 1e-2}) {
          CompressionConfig config;
          config.backend = "sz3-interp";
          config.eb_mode = EbMode::kValueRangeRel;
          config.eb = eb;
          const double abs_eb = resolve_abs_eb(field.data, config);
          const CompressorFeatures cf =
              extract_compressor_features(field.data, abs_eb, 10);
          QualitySample s;
          s.features = assemble_feature_vector(
              abs_eb, backend_by_name(config.backend).wire_id, df, cf);
          const RoundTripStats stats = measure_roundtrip(field.data, config);
          s.compression_ratio = stats.compression_ratio;
          s.compress_seconds = stats.compress_seconds;
          s.psnr_db = std::isinf(stats.psnr_db) ? 200.0 : stats.psnr_db;
          s.n_elements = field.data.size();
          samples.push_back(s);
        }
      }
    }
    return QualityModel::train(samples);
  }();
  return model;
}

std::vector<CompressionConfig> candidate_sweep() {
  std::vector<CompressionConfig> candidates;
  for (const double eb : {1e-5, 1e-4, 1e-3, 1e-2}) {
    CompressionConfig config;
    config.backend = "sz3-interp";
    config.eb_mode = EbMode::kValueRangeRel;
    config.eb = eb;
    candidates.push_back(config);
  }
  return candidates;
}

TEST(Advisor, ScoresEveryCandidate) {
  const FloatArray data = generate_field("CESM", "TMQ", 0.04, 3);
  QualityConstraints constraints;
  constraints.min_psnr_db = 0.0;  // everything feasible
  const Advice advice =
      advise(trained_model(), data, candidate_sweep(), constraints, 10);
  EXPECT_EQ(advice.options.size(), 4u);
  ASSERT_TRUE(advice.best_index.has_value());
  for (const auto& opt : advice.options) {
    EXPECT_TRUE(opt.feasible);
    EXPECT_GT(opt.prediction.compression_ratio, 0.0);
  }
}

TEST(Advisor, PicksHighestRatioAmongFeasible) {
  const FloatArray data = generate_field("CESM", "TMQ", 0.04, 3);
  QualityConstraints constraints;
  constraints.min_psnr_db = 0.0;
  const Advice advice =
      advise(trained_model(), data, candidate_sweep(), constraints, 10);
  ASSERT_TRUE(advice.best_index.has_value());
  const double best_ratio =
      advice.options[*advice.best_index].prediction.compression_ratio;
  for (const auto& opt : advice.options) {
    EXPECT_LE(opt.prediction.compression_ratio, best_ratio + 1e-9);
  }
}

TEST(Advisor, PsnrConstraintExcludesLooseBounds) {
  const FloatArray data = generate_field("CESM", "TMQ", 0.04, 3);
  QualityConstraints strict;
  strict.min_psnr_db = 95.0;
  const Advice advice =
      advise(trained_model(), data, candidate_sweep(), strict, 10);
  // The loosest bound (1e-2 relative) should be infeasible under a
  // strict PSNR requirement, while some tighter bound passes.
  bool any_infeasible = false, any_feasible = false;
  for (const auto& opt : advice.options) {
    (opt.feasible ? any_feasible : any_infeasible) = true;
  }
  EXPECT_TRUE(any_infeasible);
  EXPECT_TRUE(any_feasible);
  if (advice.best_index) {
    EXPECT_TRUE(advice.options[*advice.best_index].feasible);
  }
}

TEST(Advisor, ImpossibleConstraintsYieldNoChoice) {
  const FloatArray data = generate_field("CESM", "TMQ", 0.04, 3);
  QualityConstraints impossible;
  impossible.min_psnr_db = 1e9;
  const Advice advice =
      advise(trained_model(), data, candidate_sweep(), impossible, 10);
  EXPECT_FALSE(advice.best_index.has_value());
}

TEST(Advisor, EmptyCandidateListThrows) {
  const FloatArray data = generate_field("CESM", "TMQ", 0.04, 3);
  EXPECT_THROW(
      (void)advise(trained_model(), data, {}, QualityConstraints{}, 10),
      InvalidArgument);
}

}  // namespace
}  // namespace ocelot
