#pragma once
// Quality advisor: Ocelot capability #1 (Section V).
//
// "Selecting best-qualified lossy compression configuration based on
// our proposed quality predictor": the advisor evaluates candidate
// configurations through the trained quality model and returns the
// predicted (ratio, time, PSNR) table plus the best configuration
// under the user's constraints (minimum PSNR, maximum compression
// time), preferring the highest predicted ratio among feasible ones.

#include <optional>
#include <vector>

#include "common/ndarray.hpp"
#include "compressor/config.hpp"
#include "predictor/quality_model.hpp"

namespace ocelot {

/// User acceptance constraints.
struct QualityConstraints {
  double min_psnr_db = 60.0;
  double max_compress_seconds = 1e12;  ///< effectively unbounded
};

/// One advised candidate.
struct AdvisedOption {
  CompressionConfig config;
  QualityPrediction prediction;
  bool feasible = false;
};

/// Advisor verdict: every option scored, plus the chosen one (if any).
struct Advice {
  std::vector<AdvisedOption> options;
  std::optional<std::size_t> best_index;
};

/// Scores `candidates` for `data` and picks the feasible option with
/// the highest predicted compression ratio.
Advice advise(const QualityModel& model, const FieldView& data,
              const std::vector<CompressionConfig>& candidates,
              const QualityConstraints& constraints,
              std::size_t sample_stride = 100);

/// Default candidate space: one configuration per compressor backend
/// per error bound, so every family in the backend table competes in
/// the advisor table without this layer naming any of them.
std::vector<CompressionConfig> enumerate_candidates(
    const std::vector<double>& ebs, EbMode eb_mode = EbMode::kValueRangeRel);

}  // namespace ocelot
