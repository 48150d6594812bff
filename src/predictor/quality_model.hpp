#pragma once
// Lossy-compression quality prediction (Section VI of the paper).
//
// A decision-tree regressor per target estimates, from the 11-feature
// vector, the compression ratio, the compression time, and the PSNR of
// the reconstructed data — without running the compressor. Ratio and
// per-element time are learned in log space (both span orders of
// magnitude); PSNR is learned directly in dB.
//
// Also provides the ad-hoc closed-form ratio estimator from prior work
// (Jin et al., ICDE'22): CR = 1 / (C1*(1-p0)*P0 + (1-P0)), which the
// paper shows fails on applications where the C1 tuning does not
// transfer (Fig. 6) — reproduced here as the baseline.

#include <cstdint>
#include <optional>
#include <vector>

#include "features/features.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"

namespace ocelot {

/// One training observation: features plus measured ground truth.
struct QualitySample {
  FeatureVector features{};
  double compression_ratio = 1.0;
  double compress_seconds = 0.0;
  double psnr_db = 0.0;
  std::size_t n_elements = 0;
  int group = 0;  ///< application id, for stratified splits
};

/// Model output for one (dataset, config) pair.
struct QualityPrediction {
  double compression_ratio = 1.0;
  double compress_seconds = 0.0;
  double psnr_db = 0.0;
};

/// Three-target decision-tree quality model.
class QualityModel {
 public:
  /// Trains on measured samples. Throws InvalidArgument on empty input.
  static QualityModel train(const std::vector<QualitySample>& samples,
                            const TreeParams& params = {});

  /// Predicts quality for a feature vector describing `n_elements`
  /// samples (time scales with element count).
  [[nodiscard]] QualityPrediction predict(const FeatureVector& features,
                                          std::size_t n_elements) const;

  /// Serializes all three trees (train once, ship to campaigns).
  [[nodiscard]] Bytes to_bytes() const;

  /// Restores a model serialized by to_bytes.
  static QualityModel from_bytes(std::span<const std::uint8_t> data);

 private:
  DecisionTreeRegressor ratio_tree_;  ///< target: log2(compression ratio)
  DecisionTreeRegressor time_tree_;   ///< target: log10(seconds/element)
  DecisionTreeRegressor psnr_tree_;   ///< target: PSNR in dB
};

/// Random-forest variant of the quality model (ablation extension).
class ForestQualityModel {
 public:
  static ForestQualityModel train(const std::vector<QualitySample>& samples,
                                  const ForestParams& params = {});
  [[nodiscard]] QualityPrediction predict(const FeatureVector& features,
                                          std::size_t n_elements) const;

 private:
  RandomForestRegressor ratio_forest_;
  RandomForestRegressor time_forest_;
  RandomForestRegressor psnr_forest_;
};

/// Ad-hoc closed-form compression-ratio estimator (prior-work baseline).
struct AdHocRatioEstimator {
  double c1 = 1.0;  ///< application-specific tuning constant

  [[nodiscard]] double estimate(double p0, double big_p0) const {
    const double denom = c1 * (1.0 - p0) * big_p0 + (1.0 - big_p0);
    return denom > 1e-12 ? 1.0 / denom : 1e12;
  }

  /// Least-squares fit of C1 on (p0, P0, true ratio) observations,
  /// mimicking the per-application tuning the prior work requires.
  static AdHocRatioEstimator fit(const std::vector<QualitySample>& samples);
};

}  // namespace ocelot
