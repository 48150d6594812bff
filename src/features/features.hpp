#pragma once
// Compression-quality features (Section VI of the paper).
//
// Three categories feed the quality-prediction model:
//   config-based     — error bound (log10) and compressor type,
//   data-based       — min, max, value range, byte entropy, average
//                      Lorenzo error,
//   compressor-based — statistics of quantization bins computed on a
//                      subsample with *original-value* predictions:
//                      p0 (share of the zero bin), P0 (share of the
//                      zero bin's bits in the Huffman-encoded stream),
//                      quantization entropy, and the run-length
//                      estimator Rrle = 1 / ((1-p0)*P0 + (1-P0)).
//
// Extraction cost is controlled by the sampling stride (1% sampling =
// stride 100), which the paper shows reduces overhead from >70% to
// <5% of compression time (Fig. 13-A).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ndarray.hpp"
#include "compressor/config.hpp"

namespace ocelot {

/// Names (and count) of the model features, in vector order.
inline constexpr std::array<const char*, 11> kFeatureNames = {
    "log10_eb",        "compressor_type", "min",
    "max",             "value_range",     "byte_entropy",
    "avg_lorenzo_err", "p0",              "P0",
    "quant_entropy",   "rrle"};

inline constexpr std::size_t kFeatureCount = kFeatureNames.size();

using FeatureVector = std::array<double, kFeatureCount>;

/// Data-based features: properties of the field itself.
struct DataFeatures {
  double min = 0.0;
  double max = 0.0;
  double value_range = 0.0;
  double byte_entropy = 0.0;      ///< bits per byte of the raw encoding
  double avg_lorenzo_error = 0.0; ///< mean |v - lorenzo(v)| on originals
};

/// Compressor-based features: quantization-bin statistics.
struct CompressorFeatures {
  double p0 = 0.0;            ///< fraction of zero-bin codes
  double big_p0 = 0.0;        ///< zero bin's share of Huffman bits (P0)
  double quant_entropy = 0.0; ///< entropy of sampled quantization bins
  double rrle = 0.0;          ///< run-length estimator
  std::size_t sampled_points = 0;
};

/// Extracts data-based features (full-pass; cheap single sweep).
DataFeatures extract_data_features(const FieldView& data);

/// Extracts quantization-bin features on a subsample.
///
/// `sample_stride` keeps every k-th point (k=100 reproduces the paper's
/// 1% sampling). Predictions use original values, matching the paper's
/// note that features are computed with real data rather than
/// reconstructed values.
CompressorFeatures extract_compressor_features(const FieldView& data,
                                               double abs_eb,
                                               std::size_t sample_stride = 100);

/// Assembles the full 11-feature vector for a (dataset, config) pair.
FeatureVector make_feature_vector(const FieldView& data,
                                  const CompressionConfig& config,
                                  std::size_t sample_stride = 100);

/// Assembles the vector from precomputed parts (avoids re-extraction
/// in sweeps over error bounds / backends). `backend_id` is the
/// backend's wire id — the categorical "compressor type" feature,
/// stable across processes because wire ids are stable (the legacy
/// Pipeline enum values 0-3 kept their ids, so models trained before
/// the backend table existed still apply).
FeatureVector assemble_feature_vector(double abs_eb, std::uint8_t backend_id,
                                      const DataFeatures& df,
                                      const CompressorFeatures& cf);

}  // namespace ocelot
