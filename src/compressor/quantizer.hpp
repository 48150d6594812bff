#pragma once
// Linear-scale quantization with a strict absolute error bound.
//
// The defining contract of the SZ compression model (Section III-A):
// a prediction residual is mapped to an integer bin of width 2*eb, so
// the reconstructed value differs from the original by at most eb.
// Residuals outside the bin range (the quantizer "capacity") are marked
// unpredictable (code 0) and the original value is stored verbatim.
//
// Bin layout matches SZ: code = radius + round(residual / (2*eb)),
// so a perfect prediction lands exactly on `radius` (the "zero bin"
// whose share is the paper's p0 feature).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace ocelot {

/// Default quantizer capacity: 2*radius bins (16-bit style, like SZ).
inline constexpr std::uint32_t kDefaultQuantRadius = 32768;

/// Quantizes residuals during compression, collecting codes and
/// unpredictable values. Reconstructed values mirror the decoder
/// bit-for-bit so predictions stay symmetric.
template <typename T>
class QuantEncoder {
 public:
  QuantEncoder(double abs_eb, std::uint32_t radius = kDefaultQuantRadius)
      : eb_(abs_eb), bin_(2.0 * abs_eb), radius_(radius) {
    require(abs_eb > 0.0, "QuantEncoder: error bound must be positive");
    require(radius >= 2, "QuantEncoder: radius too small");
  }

  /// Quantizes `real` against `pred`; returns the reconstructed value.
  /// Non-finite samples (NaN/Inf, common in masked scientific fields)
  /// are stored verbatim so they survive the round trip bit-exactly.
  T encode(double pred, T real) {
    const double diff = static_cast<double>(real) - pred;
    if (!std::isfinite(diff)) {
      codes_.push_back(0);
      raw_.push_back(real);
      return real;
    }
    const auto q = static_cast<std::int64_t>(std::llround(diff / bin_));
    if (q > -static_cast<std::int64_t>(radius_) &&
        q < static_cast<std::int64_t>(radius_)) {
      const T recon = static_cast<T>(pred + static_cast<double>(q) * bin_);
      // Guard against floating-point cast widening the error past eb.
      if (std::abs(static_cast<double>(recon) - static_cast<double>(real)) <=
          eb_) {
        codes_.push_back(static_cast<std::uint32_t>(
            static_cast<std::int64_t>(radius_) + q));
        return recon;
      }
    }
    codes_.push_back(0);  // unpredictable marker
    raw_.push_back(real);
    return real;
  }

  /// Pre-sizes the code stream for `n` samples (one code per sample),
  /// avoiding growth reallocations on the hot path.
  void reserve(std::size_t n) { codes_.reserve(n); }

  [[nodiscard]] const std::vector<std::uint32_t>& codes() const {
    return codes_;
  }
  [[nodiscard]] const std::vector<T>& raw_values() const { return raw_; }
  [[nodiscard]] std::uint32_t radius() const { return radius_; }

  [[nodiscard]] std::vector<std::uint32_t> take_codes() {
    return std::move(codes_);
  }
  [[nodiscard]] std::vector<T> take_raw() { return std::move(raw_); }

 private:
  double eb_;
  double bin_;
  std::uint32_t radius_;
  std::vector<std::uint32_t> codes_;
  std::vector<T> raw_;
};

/// Replays a code stream during decompression, reproducing exactly the
/// reconstructed values the encoder computed. Besides decode(), it
/// serves the fused hierarchy kernels as a cursor: they claim a line's
/// codes in bulk and pop raw values in stream order.
template <typename T>
class QuantDecoder {
 public:
  QuantDecoder(double abs_eb, std::uint32_t radius,
               std::span<const std::uint32_t> codes, std::span<const T> raw)
      : bin_(2.0 * abs_eb), radius_(radius), codes_(codes), raw_(raw) {}

  /// Reconstructs the next value given the (symmetric) prediction.
  T decode(double pred) {
    const std::uint32_t code = *take_codes(1);
    if (code == 0) return next_raw();
    const auto q = static_cast<std::int64_t>(code) -
                   static_cast<std::int64_t>(radius_);
    return static_cast<T>(pred + static_cast<double>(q) * bin_);
  }

  /// Claims the next `n` codes; throws CorruptStream if fewer remain.
  const std::uint32_t* take_codes(std::size_t n) {
    if (n > codes_.size() - code_pos_)
      throw CorruptStream("QuantDecoder: code stream exhausted");
    const std::uint32_t* out = codes_.data() + code_pos_;
    code_pos_ += n;
    return out;
  }

  /// The next unpredictable value; throws CorruptStream when none is
  /// left.
  T next_raw() {
    if (raw_pos_ >= raw_.size())
      throw CorruptStream("QuantDecoder: raw stream exhausted");
    return raw_[raw_pos_++];
  }

  [[nodiscard]] double bin() const { return bin_; }
  [[nodiscard]] std::uint32_t radius() const { return radius_; }

  [[nodiscard]] bool exhausted() const {
    return code_pos_ == codes_.size() && raw_pos_ == raw_.size();
  }

 private:
  double bin_;
  std::uint32_t radius_;
  std::span<const std::uint32_t> codes_;
  std::span<const T> raw_;
  std::size_t code_pos_ = 0;
  std::size_t raw_pos_ = 0;
};

}  // namespace ocelot
