// Property tests for the linear quantizer the codecs run: the fused
// encoder (kernels::FusedQuant) against the error-bound contract, the
// QuantDecoder replay, and a bit-identity diff against the scalar
// QuantEncoder oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/huffman.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "compressor/kernels/quant_common.hpp"
#include "compressor/quantizer.hpp"
#include "support/quant_reference.hpp"

namespace ocelot {
namespace {

/// A FusedQuant for up to `n` samples in its own arena frame. The
/// destructor drains the persistent histogram window back to all-zero,
/// as every production encode does.
template <typename T>
struct Fused {
  ArenaScope scope;
  kernels::FusedQuant<T> quant;

  Fused(double eb, std::size_t n, std::uint32_t radius = kDefaultQuantRadius)
      : quant(kernels::FusedQuant<T>::make(eb, radius, n, scope.arena(),
                                           ScratchArena::Slot::kHistA)) {}
  ~Fused() { (void)quant.hist_view(scope.arena()); }
  Fused(const Fused&) = delete;
  Fused& operator=(const Fused&) = delete;

  std::vector<std::uint32_t> codes() const {
    return {quant.codes_view().begin(), quant.codes_view().end()};
  }
  std::vector<T> raw() const {
    return {quant.raw_view().begin(), quant.raw_view().end()};
  }
};

TEST(Quantizer, PerfectPredictionLandsOnZeroBin) {
  Fused<double> enc(1e-3, 1);
  const double recon = enc.quant.encode1(5.0, 5.0);
  EXPECT_EQ(recon, 5.0);
  ASSERT_EQ(enc.codes().size(), 1u);
  EXPECT_EQ(enc.codes()[0], kDefaultQuantRadius);
  EXPECT_TRUE(enc.raw().empty());
}

TEST(Quantizer, ReconstructionWithinBound) {
  Rng rng(20);
  const double eb = 1e-2;
  Fused<double> enc(eb, 10000);
  for (int i = 0; i < 10000; ++i) {
    const double pred = rng.normal(0.0, 10.0);
    const double real = pred + rng.normal(0.0, 5.0);
    const double recon = enc.quant.encode1(pred, real);
    EXPECT_LE(std::abs(recon - real), eb);
  }
}

TEST(Quantizer, FarResidualFallsBackToRaw) {
  const double eb = 1e-6;
  Fused<double> enc(eb, 1);
  // Residual of 1.0 = 5e5 bins > radius: must store verbatim.
  const double recon = enc.quant.encode1(0.0, 1.0);
  EXPECT_EQ(recon, 1.0);
  EXPECT_EQ(enc.codes()[0], 0u);
  ASSERT_EQ(enc.raw().size(), 1u);
  EXPECT_EQ(enc.raw()[0], 1.0);
}

TEST(Quantizer, DecoderReplaysEncoderExactly) {
  Rng rng(21);
  const double eb = 1e-3;
  Fused<float> enc(eb, 5000);
  std::vector<double> preds;
  std::vector<float> recons;
  for (int i = 0; i < 5000; ++i) {
    const double pred = rng.normal(0.0, 2.0);
    const float real = static_cast<float>(pred + rng.normal(0.0, 1.0));
    preds.push_back(pred);
    recons.push_back(enc.quant.encode1(pred, real));
  }
  const std::vector<std::uint32_t> codes = enc.codes();
  const std::vector<float> raw = enc.raw();
  QuantDecoder<float> dec(eb, kDefaultQuantRadius, codes, raw);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    EXPECT_EQ(dec.decode(preds[i]), recons[i]) << "at " << i;
  }
  EXPECT_TRUE(dec.exhausted());
}

TEST(Quantizer, FloatCastGuardPreservesBound) {
  // Large magnitudes with tiny bounds: float casting could break the
  // bound; the encoder must detect it and fall back to raw storage.
  const double eb = 1e-7;
  Fused<float> enc(eb, 1000);
  Rng rng(22);
  for (int i = 0; i < 1000; ++i) {
    const double pred = 1e8 + rng.uniform(0.0, 100.0);
    const float real = static_cast<float>(pred + rng.uniform(-1e-5, 1e-5));
    const float recon = enc.quant.encode1(pred, real);
    EXPECT_LE(std::abs(static_cast<double>(recon) -
                       static_cast<double>(real)),
              eb);
  }
}

TEST(Quantizer, ExhaustedDecoderThrows) {
  Fused<double> enc(1e-3, 1);
  (void)enc.quant.encode1(0.0, 0.5);
  const std::vector<std::uint32_t> codes = enc.codes();
  const std::vector<double> raw = enc.raw();
  QuantDecoder<double> dec(1e-3, kDefaultQuantRadius, codes, raw);
  (void)dec.decode(0.0);
  EXPECT_THROW((void)dec.decode(0.0), CorruptStream);
}

TEST(Quantizer, InvalidParamsThrow) {
  ArenaScope scope;
  const auto make = [&](double eb, std::uint32_t radius) {
    (void)kernels::FusedQuant<double>::make(eb, radius, 1, scope.arena(),
                                            ScratchArena::Slot::kHistA);
  };
  EXPECT_THROW(make(0.0, kDefaultQuantRadius), InvalidArgument);
  EXPECT_THROW(make(-1.0, kDefaultQuantRadius), InvalidArgument);
  EXPECT_THROW(make(1.0, 1), InvalidArgument);
}

/// Error-bound property across magnitudes and bounds.
class QuantizerSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(QuantizerSweep, BoundHolds) {
  const auto [eb, magnitude] = GetParam();
  Rng rng(static_cast<std::uint64_t>(std::log10(eb) * -100 + magnitude));
  Fused<double> enc(eb, 2000);
  for (int i = 0; i < 2000; ++i) {
    const double pred = rng.normal(0.0, magnitude);
    const double real = pred + rng.normal(0.0, magnitude * 0.1);
    const double recon = enc.quant.encode1(pred, real);
    EXPECT_LE(std::abs(recon - real), eb);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BoundsAndMagnitudes, QuantizerSweep,
    ::testing::Combine(::testing::Values(1e-6, 1e-4, 1e-2, 1.0),
                       ::testing::Values(1.0, 1e3, 1e6)));

// --- bit identity against the scalar oracle -------------------------

struct Sample {
  double pred;
  double real;
};

/// Random residuals plus the inputs where a rounding rule can differ:
/// exact ±0.5-bin ties, |t| >= 2^52, the ±radius edges, NaN/±Inf on
/// either side, and denormals. `bin` is 2 * eb.
std::vector<Sample> adversarial_samples(double bin, std::uint32_t radius,
                                        std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double r = static_cast<double>(radius);
  std::vector<Sample> samples;
  Rng rng(seed);
  for (int i = 0; i < 4000; ++i) {
    const double pred = rng.normal(0.0, 50.0 * bin);
    samples.push_back({pred, pred + rng.normal(0.0, 20.0 * bin)});
  }
  for (int k = -6; k <= 6; ++k) {
    for (const double pred : {0.0, 3.0 * bin, -7.0 * bin}) {
      samples.push_back({pred, pred + (k + 0.5) * bin});
      samples.push_back({pred, pred + (k - 0.5) * bin});
    }
  }
  for (const double t : {r - 2.0, r - 1.5, r - 1.0, r - 0.5, r - 0.25, r,
                         r + 0.5, r + 1.0}) {
    samples.push_back({0.0, t * bin});
    samples.push_back({0.0, -t * bin});
  }
  for (const double t : {0x1p52, 0x1p52 + 1.0, 0x1p53, 0x1p60, 1e300}) {
    samples.push_back({0.0, t * bin});
    samples.push_back({0.0, -t * bin});
  }
  for (const double special : {kInf, -kInf, kNan}) {
    samples.push_back({0.0, special});
    samples.push_back({special, 1.0});
    samples.push_back({special, special});
  }
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double fdenorm = std::numeric_limits<float>::denorm_min();
  for (const double d : {denorm, 3.0 * denorm, fdenorm, 5.0 * fdenorm}) {
    samples.push_back({0.0, d});
    samples.push_back({d, -d});
    samples.push_back({0.0, -d});
  }
  return samples;
}

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
void expect_matches_oracle(double eb, std::uint32_t radius,
                           std::uint64_t seed) {
  const std::vector<Sample> samples =
      adversarial_samples(2.0 * eb, radius, seed);
  reference::QuantEncoder<T> oracle(eb, radius);
  Fused<T> fused(eb, samples.size(), radius);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const T real = static_cast<T>(samples[i].real);
    const T want = oracle.encode(samples[i].pred, real);
    const T got = fused.quant.encode1(samples[i].pred, real);
    ASSERT_TRUE(same_bits(want, got))
        << "sample " << i << " pred " << samples[i].pred << " real " << real
        << " eb " << eb << ": " << got << " vs oracle " << want;
  }
  ASSERT_EQ(fused.codes(), oracle.codes()) << "eb " << eb;
  const std::vector<T> raw = fused.raw();
  ASSERT_EQ(raw.size(), oracle.raw_values().size()) << "eb " << eb;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_TRUE(same_bits(raw[i], oracle.raw_values()[i])) << "raw " << i;
  }
  // The inline histogram is what the entropy stage codes from.
  const auto hist = fused.quant.hist_view(fused.scope.arena());
  const SymbolHist want = histogram_symbols(oracle.codes());
  EXPECT_EQ(SymbolHist(hist.begin(), hist.end()), want) << "eb " << eb;
}

TEST(QuantizerOracle, FusedEncodeMatchesQuantEncoderBitForBit) {
  const double denorm_eb = 4.0 * std::numeric_limits<double>::denorm_min();
  std::uint64_t seed = 100;
  for (const double eb : {1e-3, 0.125, 1.0, 1e-30, denorm_eb}) {
    for (const std::uint32_t radius : {kDefaultQuantRadius, 2u, 5u}) {
      expect_matches_oracle<float>(eb, radius, seed++);
      expect_matches_oracle<double>(eb, radius, seed++);
    }
  }
}

}  // namespace
}  // namespace ocelot
