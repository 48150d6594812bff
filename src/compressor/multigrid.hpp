#pragma once
// MGARD-style multigrid backend (wire id 4).
//
// A second compressor family alongside the SZ pipelines: the grid is
// treated as a dyadic node hierarchy.
// Encode first *coarsens* — nodal values on the coarsest grid (stride
// S, a power of two capped by kMaxAnchorStride) are coded with a
// stride-S Lorenzo predictor — then *corrects* level by level: each
// halving level s = S/2 ... 1 predicts the newly-refined nodes by
// linear interpolation along the refined dimension from the already-
// reconstructed coarser surface, and quantizes the correction. The
// node ordering is the shared hierarchy walk of the fused kernels
// (kernels/quant_kernels.hpp) in linear mode, so the coverage
// argument is proven once for both families.
//
// Two uniform quantizers share the abs-eb invariant: coarse levels
// (s >= 2) use a tightened bin (eb / kMultigridCoarseTighten) so the
// interpolation parents of every finer level are more accurate than
// the bound requires, and the finest level uses the full bin. Each
// node is quantized exactly once against its own prediction, so
// max|x - x^| <= eb holds pointwise regardless of the split. Code
// streams go through the same Huffman + lossless entropy stage as the
// SZ families ("mg_coarse_codes"/"mg_coarse_raw" and "codes"/"raw"
// sections).
//
// This is the linear-B-spline skeleton of MGARD (coarsen / correct /
// quantize per level) without the L2 projection step — corrections
// are interpolation residuals rather than orthogonal-projection
// coefficients — which keeps the decoder a bit-exact replay of the
// encoder under the repo's quantizer contract.

#include "compressor/backend.hpp"

namespace ocelot {

/// Coarse levels quantize with eb / this factor.
inline constexpr double kMultigridCoarseTighten = 2.0;

/// The multigrid codec, for its row in the backend table.
const CompressorBackend& multigrid_codec();

}  // namespace ocelot
