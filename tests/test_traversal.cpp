// Tests for the prediction traversals: coverage and symmetry.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/ndarray.hpp"
#include "common/rng.hpp"
#include "compressor/kernels/quant_kernels.hpp"
#include "compressor/regression.hpp"
#include "compressor/traversal.hpp"
#include "support/quant_reference.hpp"

namespace ocelot {
namespace {

/// Every traversal must visit each linear index exactly once.
template <typename Traverse>
void expect_exact_coverage(const Shape& shape, Traverse&& traverse) {
  std::vector<float> recon(shape.size(), 0.0f);
  std::vector<int> visits(shape.size(), 0);
  traverse(recon, [&](std::size_t idx, double) -> float {
    ++visits[idx];
    return 1.0f;
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

class CoverageShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(CoverageShapes, LorenzoVisitsEachPointOnce) {
  const Shape shape = GetParam();
  expect_exact_coverage(shape, [&](std::span<float> recon, auto&& fn) {
    lorenzo_traverse<float>(shape, recon, fn);
  });
}

TEST_P(CoverageShapes, InterpVisitsEachPointOnce) {
  const Shape shape = GetParam();
  const std::size_t stride = choose_anchor_stride(shape);
  expect_exact_coverage(shape, [&](std::span<float> recon, auto&& fn) {
    reference::interp_traverse<float>(shape, recon, stride, fn);
  });
}

TEST_P(CoverageShapes, BlockTraverseVisitsEachPointOnce) {
  const Shape shape = GetParam();
  expect_exact_coverage(shape, [&](std::span<float> recon, auto&& fn) {
    block_traverse<float>(
        shape, recon, 6,
        [](const BlockRegion&) {
          return std::pair<bool, BlockCoeffs>{false, {}};
        },
        fn);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, CoverageShapes,
    ::testing::Values(Shape(1), Shape(7), Shape(64), Shape(65), Shape(1, 9),
                      Shape(13, 17), Shape(64, 64), Shape(5, 1, 7),
                      Shape(16, 16, 16), Shape(17, 19, 23), Shape(3, 3, 3),
                      Shape(129, 2, 5)));

TEST(Lorenzo, PredictsLinearRampExactly2D) {
  // f(i,j) = 2i + 3j is reproduced exactly by order-1 Lorenzo.
  const Shape shape(8, 8);
  FloatArray data(shape);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      data.at(i, j) = static_cast<float>(2.0 * i + 3.0 * j);
    }
  }
  std::vector<float> recon(shape.size());
  double max_residual = 0.0;
  lorenzo_traverse<float>(shape, recon, [&](std::size_t idx, double pred) {
    // Skip borders where neighbors are zero-padded.
    const std::size_t i = idx / 8, j = idx % 8;
    if (i > 0 && j > 0) {
      max_residual = std::max(
          max_residual, std::abs(static_cast<double>(data[idx]) - pred));
    }
    return data[idx];  // feed originals forward
  });
  EXPECT_LT(max_residual, 1e-9);
}

TEST(AverageLorenzoError, ZeroForLinearField) {
  const Shape shape(16, 16);
  FloatArray data(shape);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      data.at(i, j) = static_cast<float>(i + j);
    }
  }
  // Interior predictions are exact; only first row/column contribute.
  EXPECT_LT(average_lorenzo_error(data), 2.0);

  // A noisy field must score strictly worse.
  FloatArray noisy(shape);
  Rng rng(77);
  for (float& v : noisy.values()) {
    v = static_cast<float>(rng.uniform(0.0, 100.0));
  }
  EXPECT_GT(average_lorenzo_error(noisy), average_lorenzo_error(data));
}

TEST(InterpTraversal, AnchorStrideSelection) {
  EXPECT_EQ(choose_anchor_stride(Shape(1000), 64), 64u);
  EXPECT_EQ(choose_anchor_stride(Shape(16), 64), 16u);
  EXPECT_EQ(choose_anchor_stride(Shape(3), 64), 2u);
  EXPECT_EQ(choose_anchor_stride(Shape(1000, 4), 64), 64u);
}

TEST(BlockRegression, FitsExactPlane) {
  const Shape shape(6, 6, 6);
  FloatArray data(shape);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      for (std::size_t k = 0; k < 6; ++k) {
        data.at(i, j, k) = static_cast<float>(1.0 + 2.0 * i - 3.0 * j + 0.5 * k);
      }
    }
  }
  BlockRegion region{{0, 0, 0}, {6, 6, 6}};
  const BlockCoeffs c = fit_block_regression(data, region);
  EXPECT_NEAR(c.b0, 1.0, 1e-4);
  EXPECT_NEAR(c.b1, 2.0, 1e-4);
  EXPECT_NEAR(c.b2, -3.0, 1e-4);
  EXPECT_NEAR(c.b3, 0.5, 1e-4);

  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      for (std::size_t k = 0; k < 6; ++k) {
        EXPECT_NEAR(predict_block(c, i, j, k), data.at(i, j, k), 1e-3);
      }
    }
  }
}

TEST(BlockRegression, PartialEdgeBlock) {
  const Shape shape(7, 5);
  FloatArray data(shape);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      data.at(i, j) = static_cast<float>(10.0 - 1.5 * i + 0.25 * j);
    }
  }
  // Edge block starting at (6, 0): a single row.
  BlockRegion region{{6, 0, 0}, {1, 5, 1}};
  const BlockCoeffs c = fit_block_regression(data, region);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(predict_block(c, 0, j, 0), data.at(6, j), 1e-3);
  }
}

}  // namespace
}  // namespace ocelot
