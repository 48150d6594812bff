#include "features/features.hpp"

#include <cmath>
#include <map>

#include "codec/huffman.hpp"
#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "compressor/quantizer.hpp"
#include "compressor/traversal.hpp"

namespace ocelot {

template <typename T>
DataFeatures extract_data_features(const NdArray<T>& data) {
  DataFeatures f;
  const ValueSummary s = summarize(data.values());
  f.min = s.min;
  f.max = s.max;
  f.value_range = s.range;
  f.byte_entropy = byte_entropy_of(data.values());
  f.avg_lorenzo_error = average_lorenzo_error(data);
  return f;
}

template DataFeatures extract_data_features<float>(const NdArray<float>&);
template DataFeatures extract_data_features<double>(const NdArray<double>&);

namespace {

/// Lorenzo prediction from *original* neighbors at (i, j, k).
template <typename T>
double lorenzo_pred_original(const NdArray<T>& data, std::size_t i,
                             std::size_t j, std::size_t k) {
  const Shape& shape = data.shape();
  const int rank = shape.rank();
  const std::size_t n1 = rank >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = rank >= 3 ? shape.dim(2) : 1;
  const std::size_t s1 = n1 * n2;
  const std::size_t s2 = n2;
  const auto vals = data.values();
  auto at = [&](std::size_t a, std::size_t b, std::size_t c) -> double {
    return static_cast<double>(vals[a * s1 + b * s2 + c]);
  };
  const bool bi = i > 0, bj = j > 0, bk = k > 0;
  if (rank <= 1) return bi ? at(i - 1, 0, 0) : 0.0;
  if (rank == 2) {
    return (bi ? at(i - 1, j, 0) : 0.0) + (bj ? at(i, j - 1, 0) : 0.0) -
           (bi && bj ? at(i - 1, j - 1, 0) : 0.0);
  }
  return (bi ? at(i - 1, j, k) : 0.0) + (bj ? at(i, j - 1, k) : 0.0) +
         (bk ? at(i, j, k - 1) : 0.0) -
         (bi && bj ? at(i - 1, j - 1, k) : 0.0) -
         (bi && bk ? at(i - 1, j, k - 1) : 0.0) -
         (bj && bk ? at(i, j - 1, k - 1) : 0.0) +
         (bi && bj && bk ? at(i - 1, j - 1, k - 1) : 0.0);
}

}  // namespace

template <typename T>
CompressorFeatures extract_compressor_features(const NdArray<T>& data,
                                               double abs_eb,
                                               std::size_t sample_stride) {
  require(abs_eb > 0.0, "extract_compressor_features: eb must be positive");
  require(sample_stride >= 1, "extract_compressor_features: zero stride");

  const Shape& shape = data.shape();
  const int rank = shape.rank();
  const std::size_t n1 = rank >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = rank >= 3 ? shape.dim(2) : 1;
  const auto vals = data.values();

  const double bin = 2.0 * abs_eb;
  constexpr std::int64_t kRadius = kDefaultQuantRadius;

  std::vector<std::uint32_t> bins;
  bins.reserve(data.size() / sample_stride + 1);

  // Visit every sample_stride-th point in linear order; recover the
  // grid coordinates to form the Lorenzo prediction from originals.
  for (std::size_t idx = 0; idx < data.size(); idx += sample_stride) {
    const std::size_t i = idx / (n1 * n2);
    const std::size_t j = (idx / n2) % n1;
    const std::size_t k = idx % n2;
    const double pred = lorenzo_pred_original(data, i, j, k);
    const double diff = static_cast<double>(vals[idx]) - pred;
    const auto q = static_cast<std::int64_t>(std::llround(diff / bin));
    std::uint32_t code = 0;
    if (q > -kRadius && q < kRadius) {
      code = static_cast<std::uint32_t>(kRadius + q);
    }
    bins.push_back(code);
  }

  CompressorFeatures f;
  f.sampled_points = bins.size();
  if (bins.empty()) return f;

  const SymbolCounts counts = count_symbols(bins);
  const auto zero_it = counts.find(static_cast<std::uint32_t>(kRadius));
  const std::uint64_t zero_count =
      zero_it == counts.end() ? 0 : zero_it->second;
  f.p0 = static_cast<double>(zero_count) / static_cast<double>(bins.size());

  // P0: the zero bin's share of the Huffman-encoded bit stream.
  if (counts.size() == 1) {
    // Degenerate: one symbol dominates entirely. The encoded stream is
    // ~0 bits; attribute the whole (empty) stream to that symbol.
    f.big_p0 = zero_count > 0 ? 1.0 : 0.0;
  } else {
    const HuffmanCode code = HuffmanCode::from_counts(counts);
    const std::uint64_t total_bits = code.encoded_bits(counts);
    const std::uint64_t zero_bits =
        zero_count *
        static_cast<std::uint64_t>(code.length(static_cast<std::uint32_t>(kRadius)));
    f.big_p0 = total_bits == 0
                   ? 0.0
                   : static_cast<double>(zero_bits) /
                         static_cast<double>(total_bits);
  }

  f.quant_entropy = symbol_entropy(bins);
  const double denom = (1.0 - f.p0) * f.big_p0 + (1.0 - f.big_p0);
  f.rrle = denom > 1e-12 ? 1.0 / denom : 1e12;
  return f;
}

template CompressorFeatures extract_compressor_features<float>(
    const NdArray<float>&, double, std::size_t);
template CompressorFeatures extract_compressor_features<double>(
    const NdArray<double>&, double, std::size_t);

FeatureVector assemble_feature_vector(double abs_eb, std::uint8_t backend_id,
                                      const DataFeatures& df,
                                      const CompressorFeatures& cf) {
  FeatureVector v;
  v[0] = std::log10(abs_eb);
  v[1] = static_cast<double>(backend_id);
  v[2] = df.min;
  v[3] = df.max;
  v[4] = df.value_range;
  v[5] = df.byte_entropy;
  v[6] = df.avg_lorenzo_error;
  v[7] = cf.p0;
  v[8] = cf.big_p0;
  v[9] = cf.quant_entropy;
  v[10] = cf.rrle;
  return v;
}

template <typename T>
FeatureVector make_feature_vector(const NdArray<T>& data,
                                  const CompressionConfig& config,
                                  std::size_t sample_stride) {
  const double abs_eb = resolve_abs_eb(data, config);
  const std::uint8_t backend_id = backend_by_name(config.backend).wire_id;
  const DataFeatures df = extract_data_features(data);
  const CompressorFeatures cf =
      extract_compressor_features(data, abs_eb, sample_stride);
  return assemble_feature_vector(abs_eb, backend_id, df, cf);
}

template FeatureVector make_feature_vector<float>(const NdArray<float>&,
                                                  const CompressionConfig&,
                                                  std::size_t);
template FeatureVector make_feature_vector<double>(const NdArray<double>&,
                                                   const CompressionConfig&,
                                                   std::size_t);

}  // namespace ocelot
