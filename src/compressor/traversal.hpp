#pragma once
// Shared prediction traversals for the SZ-style pipelines.
//
// Compression and decompression must compute identical predictions, so
// each predictor is written once as a traversal that visits every grid
// point in a fixed order, computes the prediction from already-
// reconstructed values, and hands (index, prediction) to a callback.
// The compressor's callback quantizes the original value; the
// decompressor's callback replays the code stream. Both write the
// reconstructed value back through the traversal, keeping the two
// sides bit-identical by construction.
//
// Callback signature: T fn(std::size_t linear_index, double prediction).

#include <cstddef>
#include <span>

#include "common/ndarray.hpp"

namespace ocelot {

/// First-order Lorenzo traversal in raster order.
///
/// Out-of-bounds neighbors are treated as zero (SZ convention):
///   1-D: f(i-1)
///   2-D: f(i-1,j) + f(i,j-1) - f(i-1,j-1)
///   3-D: 7-term inclusion-exclusion over the preceding corner cube.
template <typename T, typename Fn>
void lorenzo_traverse(const Shape& shape, std::span<T> recon, Fn&& fn) {
  const std::size_t n0 = shape.dim(0);
  const std::size_t n1 = shape.rank() >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = shape.rank() >= 3 ? shape.dim(2) : 1;
  const std::size_t s1 = n1 * n2;  // stride of dim 0
  const std::size_t s2 = n2;       // stride of dim 1

  auto at = [&](std::size_t i, std::size_t j, std::size_t k) -> double {
    return static_cast<double>(recon[i * s1 + j * s2 + k]);
  };

  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        double pred = 0.0;
        const bool bi = i > 0, bj = j > 0, bk = k > 0;
        if (shape.rank() <= 1) {
          pred = bi ? at(i - 1, 0, 0) : 0.0;
        } else if (shape.rank() == 2) {
          pred = (bi ? at(i - 1, j, 0) : 0.0) + (bj ? at(i, j - 1, 0) : 0.0) -
                 (bi && bj ? at(i - 1, j - 1, 0) : 0.0);
        } else {
          pred = (bi ? at(i - 1, j, k) : 0.0) + (bj ? at(i, j - 1, k) : 0.0) +
                 (bk ? at(i, j, k - 1) : 0.0) -
                 (bi && bj ? at(i - 1, j - 1, k) : 0.0) -
                 (bi && bk ? at(i - 1, j, k - 1) : 0.0) -
                 (bj && bk ? at(i, j - 1, k - 1) : 0.0) +
                 (bi && bj && bk ? at(i - 1, j - 1, k - 1) : 0.0);
        }
        const std::size_t idx = i * s1 + j * s2 + k;
        recon[idx] = fn(idx, pred);
      }
    }
  }
}

/// Second-order Lorenzo traversal in raster order.
///
/// The order-2 predictor expands 1 - prod_d (1 - S_d)^2 where S_d is
/// the unit shift along dimension d: in 1-D this is the linear
/// extrapolation 2f(i-1) - f(i-2); higher ranks combine shifts up to
/// distance 2 per dimension with binomial coefficients {1, -2, 1}.
/// Out-of-bounds neighbors are zero (SZ convention).
template <typename T, typename Fn>
void lorenzo2_traverse(const Shape& shape, std::span<T> recon, Fn&& fn) {
  const int rank = shape.rank();
  const std::size_t n0 = shape.dim(0);
  const std::size_t n1 = rank >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = rank >= 3 ? shape.dim(2) : 1;
  const std::size_t s1 = n1 * n2;
  const std::size_t s2 = n2;
  // (1 - S)^2 coefficients per shift distance 0/1/2.
  constexpr double kC2[3] = {1.0, -2.0, 1.0};
  const int amax = 2;
  const int bmax = rank >= 2 ? 2 : 0;
  const int cmax = rank >= 3 ? 2 : 0;

  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        double pred = 0.0;
        for (int a = 0; a <= amax; ++a) {
          if (a > static_cast<int>(i)) continue;
          for (int b = 0; b <= bmax; ++b) {
            if (b > static_cast<int>(j)) continue;
            for (int c = 0; c <= cmax; ++c) {
              if (c > static_cast<int>(k)) continue;
              if (a == 0 && b == 0 && c == 0) continue;
              const double coef = -kC2[a] * kC2[b] * kC2[c];
              pred += coef *
                      static_cast<double>(
                          recon[(i - static_cast<std::size_t>(a)) * s1 +
                                (j - static_cast<std::size_t>(b)) * s2 +
                                (k - static_cast<std::size_t>(c))]);
            }
          }
        }
        const std::size_t idx = i * s1 + j * s2 + k;
        recon[idx] = fn(idx, pred);
      }
    }
  }
}

/// Average absolute first-order Lorenzo residual computed on the
/// *original* values (the paper's avg-Lorenzo-error data feature;
/// Section VI notes features use real values, not reconstructed ones).
inline double average_lorenzo_error(const FieldView& data) {
  const Shape& shape = data.shape();
  const std::size_t n0 = shape.dim(0);
  const std::size_t n1 = shape.rank() >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = shape.rank() >= 3 ? shape.dim(2) : 1;
  const std::size_t s1 = n1 * n2;
  const std::size_t s2 = n2;
  const auto vals = data.values();

  auto at = [&](std::size_t i, std::size_t j, std::size_t k) -> double {
    return static_cast<double>(vals[i * s1 + j * s2 + k]);
  };

  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        // Skip the all-zero-neighbor corner which has no real prediction.
        if (i == 0 && j == 0 && k == 0) continue;
        double pred = 0.0;
        const bool bi = i > 0, bj = j > 0, bk = k > 0;
        if (shape.rank() <= 1) {
          pred = bi ? at(i - 1, 0, 0) : 0.0;
        } else if (shape.rank() == 2) {
          pred = (bi ? at(i - 1, j, 0) : 0.0) + (bj ? at(i, j - 1, 0) : 0.0) -
                 (bi && bj ? at(i - 1, j - 1, 0) : 0.0);
        } else {
          pred = (bi ? at(i - 1, j, k) : 0.0) + (bj ? at(i, j - 1, k) : 0.0) +
                 (bk ? at(i, j, k - 1) : 0.0) -
                 (bi && bj ? at(i - 1, j - 1, k) : 0.0) -
                 (bi && bk ? at(i - 1, j, k - 1) : 0.0) -
                 (bj && bk ? at(i, j - 1, k - 1) : 0.0) +
                 (bi && bj && bk ? at(i - 1, j - 1, k - 1) : 0.0);
        }
        total += std::abs(at(i, j, k) - pred);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace ocelot
