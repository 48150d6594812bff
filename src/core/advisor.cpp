#include "core/advisor.hpp"

#include "common/error.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"

namespace ocelot {

Advice advise(const QualityModel& model, const FieldView& data,
              const std::vector<CompressionConfig>& candidates,
              const QualityConstraints& constraints,
              std::size_t sample_stride) {
  require(!candidates.empty(), "advise: no candidate configurations");

  // Data features are config-independent: extract once.
  const DataFeatures df = extract_data_features(data);

  Advice advice;
  advice.options.reserve(candidates.size());
  for (const auto& config : candidates) {
    const std::uint8_t backend_id = backend_by_name(config.backend).wire_id;
    const double abs_eb = resolve_abs_eb(data, config);
    const CompressorFeatures cf =
        extract_compressor_features(data, abs_eb, sample_stride);
    const FeatureVector fv = assemble_feature_vector(abs_eb, backend_id, df, cf);

    AdvisedOption option;
    option.config = config;
    option.prediction = model.predict(fv, data.size());
    option.feasible =
        option.prediction.psnr_db >= constraints.min_psnr_db &&
        option.prediction.compress_seconds <= constraints.max_compress_seconds;
    advice.options.push_back(option);
  }

  double best_ratio = 0.0;
  for (std::size_t i = 0; i < advice.options.size(); ++i) {
    const auto& opt = advice.options[i];
    if (opt.feasible && opt.prediction.compression_ratio > best_ratio) {
      best_ratio = opt.prediction.compression_ratio;
      advice.best_index = i;
    }
  }
  return advice;
}

std::vector<CompressionConfig> enumerate_candidates(
    const std::vector<double>& ebs, EbMode eb_mode) {
  std::vector<CompressionConfig> candidates;
  for (const BackendEntry& backend : backends()) {
    for (const double eb : ebs) {
      CompressionConfig config;
      config.backend = backend.name;
      config.eb_mode = eb_mode;
      config.eb = eb;
      candidates.push_back(std::move(config));
    }
  }
  return candidates;
}

}  // namespace ocelot
