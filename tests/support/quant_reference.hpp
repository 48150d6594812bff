#pragma once
// Scalar quantizer and hierarchy traversal: the test-only oracles for
// the fused quantizer kernels.
//
// QuantEncoder is the quantizer's original encode side, with llround
// and int64 range checks. hierarchy_traverse / interp_traverse visit
// the multilevel hierarchy of sz3-interp and multigrid one point at a
// time through a callback. Production runs kernels::FusedQuant and the
// dispatched hierarchy_encode / hierarchy_decode kernels instead, and
// must reproduce these bit for bit: tests/test_quantizer.cpp diffs
// FusedQuant::encode1 against QuantEncoder, and tests/test_kernels.cpp
// diffs both hierarchy kernels against the traversal on every dispatch
// level.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/ndarray.hpp"
#include "compressor/config.hpp"

namespace ocelot::reference {

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

/// Shared multilevel hierarchy traversal: anchors at `anchor_stride`
/// with stride-S Lorenzo predictions, then halving refinement levels
/// dimension by dimension. `cubic` selects 4-point cubic interior
/// interpolation (the SZ3 style) or pure linear averaging (the
/// multigrid style); both fall back to linear without a far neighbor
/// and to nearest-known on the high border. The callback
/// `fn(linear_index, prediction, level_stride)` receives the stride of
/// the level that codes the point (anchors get `anchor_stride`), so
/// callers can treat levels differently (e.g. per-level quantizers);
/// its return is stored into `recon` and feeds later predictions.
///
/// Within a level, pass d covers exactly the points whose *last*
/// odd-multiple-of-s coordinate is dimension d, guaranteeing every
/// point is visited once and all interpolation neighbors are already
/// reconstructed (tests/test_traversal.cpp checks the coverage).
template <typename T, typename Fn>
void hierarchy_traverse(const Shape& shape, std::span<T> recon,
                        std::size_t anchor_stride, bool cubic, Fn&& fn) {
  const int rank = shape.rank();
  const std::array<std::size_t, 3> n = {
      shape.dim(0), rank >= 2 ? shape.dim(1) : 1, rank >= 3 ? shape.dim(2) : 1};
  const std::size_t s1 = n[1] * n[2];
  const std::size_t s2 = n[2];
  auto lin = [&](std::size_t i, std::size_t j, std::size_t k) {
    return i * s1 + j * s2 + k;
  };
  auto val = [&](std::size_t i, std::size_t j, std::size_t k) -> double {
    return static_cast<double>(recon[lin(i, j, k)]);
  };

  const std::size_t S = anchor_stride;

  // --- Phase 1: anchors at stride S with stride-S Lorenzo predictions.
  for (std::size_t i = 0; i < n[0]; i += S) {
    for (std::size_t j = 0; j < n[1]; j += S) {
      for (std::size_t k = 0; k < n[2]; k += S) {
        const bool bi = i >= S, bj = j >= S, bk = k >= S;
        double pred = 0.0;
        if (rank <= 1) {
          pred = bi ? val(i - S, 0, 0) : 0.0;
        } else if (rank == 2) {
          pred = (bi ? val(i - S, j, 0) : 0.0) + (bj ? val(i, j - S, 0) : 0.0) -
                 (bi && bj ? val(i - S, j - S, 0) : 0.0);
        } else {
          pred = (bi ? val(i - S, j, k) : 0.0) + (bj ? val(i, j - S, k) : 0.0) +
                 (bk ? val(i, j, k - S) : 0.0) -
                 (bi && bj ? val(i - S, j - S, k) : 0.0) -
                 (bi && bk ? val(i - S, j, k - S) : 0.0) -
                 (bj && bk ? val(i, j - S, k - S) : 0.0) +
                 (bi && bj && bk ? val(i - S, j - S, k - S) : 0.0);
        }
        const std::size_t idx = lin(i, j, k);
        recon[idx] = fn(idx, pred, S);
      }
    }
  }
  if (S == 1) return;

  // --- Phase 2: refine level by level, dimension by dimension.
  for (std::size_t s = S / 2; s >= 1; s /= 2) {
    for (int d = 0; d < rank; ++d) {
      std::array<std::size_t, 3> start{};
      std::array<std::size_t, 3> step{};
      for (int e = 0; e < 3; ++e) {
        if (e == d) {
          start[static_cast<std::size_t>(e)] = s;
          step[static_cast<std::size_t>(e)] = 2 * s;
        } else if (e < d) {
          start[static_cast<std::size_t>(e)] = 0;
          step[static_cast<std::size_t>(e)] = s;
        } else {
          start[static_cast<std::size_t>(e)] = 0;
          step[static_cast<std::size_t>(e)] = 2 * s;
        }
      }
      const std::size_t nd = n[static_cast<std::size_t>(d)];

      for (std::size_t i = start[0]; i < n[0]; i += step[0]) {
        for (std::size_t j = start[1]; j < n[1]; j += step[1]) {
          for (std::size_t k = start[2]; k < n[2]; k += step[2]) {
            const std::size_t x = d == 0 ? i : (d == 1 ? j : k);
            // Accessor for neighbors displaced along dimension d.
            auto along = [&](std::size_t xx) -> double {
              return d == 0 ? val(xx, j, k) : (d == 1 ? val(i, xx, k) : val(i, j, xx));
            };
            double pred;
            if (x + s < nd) {
              if (cubic && x >= 3 * s && x + 3 * s < nd) {
                pred = (-along(x - 3 * s) + 9.0 * along(x - s) +
                        9.0 * along(x + s) - along(x + 3 * s)) /
                       16.0;
              } else {
                pred = 0.5 * (along(x - s) + along(x + s));
              }
            } else {
              pred = along(x - s);  // border: nearest known
            }
            const std::size_t idx = lin(i, j, k);
            recon[idx] = fn(idx, pred, s);
          }
        }
      }
    }
    if (s == 1) break;
  }
}

/// Visits every grid point once in the SZ3 interpolation order,
/// calling `fn(linear_index, prediction)` and storing its return into
/// `recon`.
template <typename T, typename Fn>
void interp_traverse(const Shape& shape, std::span<T> recon,
                     std::size_t anchor_stride, Fn&& fn) {
  hierarchy_traverse(shape, recon, anchor_stride, /*cubic=*/true,
                     [&](std::size_t idx, double pred, std::size_t) {
                       return fn(idx, pred);
                     });
}

}  // namespace ocelot::reference
