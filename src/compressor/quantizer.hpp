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
//
// The encode side is kernels::FusedQuant (kernels/quant_common.hpp);
// QuantDecoder below replays its streams.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/error.hpp"
#include "compressor/config.hpp"

namespace ocelot {

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
