#pragma once
// Block traversal with per-block predictor selection (SZ2 style).
//
// The grid is partitioned into cubic blocks (default 6^rank). For each
// block an oracle decides between a fitted linear model (regression
// hyperplane) and first-order Lorenzo; points are then visited in
// raster order within the block. The encoder's oracle fits the model
// on original data, quantizes the coefficients, and records the
// choice; the decoder's oracle replays both, keeping the two sides
// symmetric.

#include <array>
#include <cstddef>
#include <span>

#include "common/ndarray.hpp"

namespace ocelot {

/// Linear model over local block coordinates: b0 + b1*i + b2*j + b3*k.
struct BlockCoeffs {
  double b0 = 0.0;
  double b1 = 0.0;
  double b2 = 0.0;
  double b3 = 0.0;
};

/// Block descriptor passed to the oracle.
struct BlockRegion {
  std::array<std::size_t, 3> lo;    ///< inclusive start per dimension
  std::array<std::size_t, 3> len;   ///< extent per dimension (>= 1)
};

/// Fits the separable least-squares hyperplane to `data` restricted to
/// `region` (tensor-grid separability makes each slope independent).
inline BlockCoeffs fit_block_regression(const FieldView& data,
                                        const BlockRegion& region) {
  const Shape& shape = data.shape();
  const std::size_t sn1 = shape.rank() >= 2 ? shape.dim(1) : 1;
  const std::size_t sn2 = shape.rank() >= 3 ? shape.dim(2) : 1;
  const std::size_t s1 = sn1 * sn2;
  const std::size_t s2 = sn2;
  const auto vals = data.values();

  const double ci = (static_cast<double>(region.len[0]) - 1.0) / 2.0;
  const double cj = (static_cast<double>(region.len[1]) - 1.0) / 2.0;
  const double ck = (static_cast<double>(region.len[2]) - 1.0) / 2.0;

  double sum = 0.0, si = 0.0, sj = 0.0, sk = 0.0;
  double sii = 0.0, sjj = 0.0, skk = 0.0;
  for (std::size_t i = 0; i < region.len[0]; ++i) {
    for (std::size_t j = 0; j < region.len[1]; ++j) {
      for (std::size_t k = 0; k < region.len[2]; ++k) {
        const double v = static_cast<double>(
            vals[(region.lo[0] + i) * s1 + (region.lo[1] + j) * s2 +
                 (region.lo[2] + k)]);
        const double di = static_cast<double>(i) - ci;
        const double dj = static_cast<double>(j) - cj;
        const double dk = static_cast<double>(k) - ck;
        sum += v;
        si += di * v;
        sj += dj * v;
        sk += dk * v;
        sii += di * di;
        sjj += dj * dj;
        skk += dk * dk;
      }
    }
  }
  const double count = static_cast<double>(region.len[0] * region.len[1] *
                                           region.len[2]);
  // Centered tensor-grid coordinates are mutually orthogonal, so each
  // slope is an independent one-dimensional least-squares solution.
  BlockCoeffs c;
  c.b1 = sii > 0.0 ? si / sii : 0.0;
  c.b2 = sjj > 0.0 ? sj / sjj : 0.0;
  c.b3 = skk > 0.0 ? sk / skk : 0.0;
  // Re-center the intercept so prediction uses raw local coordinates.
  c.b0 = sum / count - c.b1 * ci - c.b2 * cj - c.b3 * ck;
  return c;
}

/// Prediction of the block model at local coordinates (i, j, k).
inline double predict_block(const BlockCoeffs& c, std::size_t i,
                            std::size_t j, std::size_t k) {
  return c.b0 + c.b1 * static_cast<double>(i) + c.b2 * static_cast<double>(j) +
         c.b3 * static_cast<double>(k);
}

/// Visits blocks in raster order; for each block calls
/// `oracle(region) -> std::pair<bool use_regression, BlockCoeffs>`,
/// then visits points in raster order calling `fn(index, prediction)`
/// whose return value is written into `recon`.
///
/// Lorenzo predictions read the global `recon` array; block raster
/// order guarantees all Lorenzo neighbors are already reconstructed.
template <typename T, typename Oracle, typename Fn>
void block_traverse(const Shape& shape, std::span<T> recon,
                    std::size_t block_size, Oracle&& oracle, Fn&& fn) {
  const int rank = shape.rank();
  const std::array<std::size_t, 3> n = {
      shape.dim(0), rank >= 2 ? shape.dim(1) : 1, rank >= 3 ? shape.dim(2) : 1};
  const std::size_t s1 = n[1] * n[2];
  const std::size_t s2 = n[2];
  auto val = [&](std::size_t i, std::size_t j, std::size_t k) -> double {
    return static_cast<double>(recon[i * s1 + j * s2 + k]);
  };

  for (std::size_t bi = 0; bi < n[0]; bi += block_size) {
    for (std::size_t bj = 0; bj < n[1]; bj += block_size) {
      for (std::size_t bk = 0; bk < n[2]; bk += block_size) {
        BlockRegion region;
        region.lo = {bi, bj, bk};
        region.len = {std::min(block_size, n[0] - bi),
                      std::min(block_size, n[1] - bj),
                      std::min(block_size, n[2] - bk)};
        const auto [use_reg, coeffs] = oracle(region);

        for (std::size_t i = 0; i < region.len[0]; ++i) {
          for (std::size_t j = 0; j < region.len[1]; ++j) {
            for (std::size_t k = 0; k < region.len[2]; ++k) {
              const std::size_t gi = bi + i, gj = bj + j, gk = bk + k;
              double pred;
              if (use_reg) {
                pred = predict_block(coeffs, i, j, k);
              } else {
                const bool xi = gi > 0, xj = gj > 0, xk = gk > 0;
                if (rank <= 1) {
                  pred = xi ? val(gi - 1, 0, 0) : 0.0;
                } else if (rank == 2) {
                  pred = (xi ? val(gi - 1, gj, 0) : 0.0) +
                         (xj ? val(gi, gj - 1, 0) : 0.0) -
                         (xi && xj ? val(gi - 1, gj - 1, 0) : 0.0);
                } else {
                  pred = (xi ? val(gi - 1, gj, gk) : 0.0) +
                         (xj ? val(gi, gj - 1, gk) : 0.0) +
                         (xk ? val(gi, gj, gk - 1) : 0.0) -
                         (xi && xj ? val(gi - 1, gj - 1, gk) : 0.0) -
                         (xi && xk ? val(gi - 1, gj, gk - 1) : 0.0) -
                         (xj && xk ? val(gi, gj - 1, gk - 1) : 0.0) +
                         (xi && xj && xk ? val(gi - 1, gj - 1, gk - 1) : 0.0);
                }
              }
              const std::size_t idx = gi * s1 + gj * s2 + gk;
              recon[idx] = fn(idx, pred);
            }
          }
        }
      }
    }
  }
}

}  // namespace ocelot
