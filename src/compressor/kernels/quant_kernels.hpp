#pragma once
// Dispatched fused hierarchy kernels.
//
// The multilevel hierarchy shared by the interpolation-style backends,
// SZ3-interp (cubic) and the MGARD-style multigrid backend (linear,
// per-level quantizers): anchors at stride S are coded first, with
// stride-S Lorenzo predictions; then each halving level
// s = S/2 ... 1 interpolates the new points dimension by dimension.
// Interior points use 4-point cubic interpolation
// (-1/16, 9/16, 9/16, -1/16) when `cubic` is set; points lacking a far
// neighbor (or all points in linear mode) fall back to linear
// averaging, and border points to nearest-known copy.
//
// hierarchy_encode / hierarchy_decode run that visit order fused with
// the quantizer (FusedQuant on encode, QuantDecoder on decode),
// SIMD-dispatched and vectorized along each refinement line: within a
// pass every point's neighbors come from earlier passes, so there is
// no loop-carried dependency. Both walk one shared visit-order
// template, so encode and decode cannot drift apart. The Lorenzo and
// block-regression traversals carry a serial dependency through the
// reconstruction feedback, so they stay on the traversal templates
// (fused through FusedQuant::encode1 on encode, QuantDecoder on
// decode).
//
// The scalar reference, hierarchy_traverse with QuantEncoder, is a
// test oracle (tests/support/quant_reference.hpp): golden blobs pin
// the encode bytes, and tests/test_kernels.cpp checks both kernels
// against it on every dispatch level.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/ndarray.hpp"
#include "compressor/kernels/dispatch.hpp"
#include "compressor/kernels/quant_common.hpp"
#include "compressor/quantizer.hpp"

namespace ocelot {

/// Largest power-of-two anchor stride <= max_stride that is also
/// meaningful for the given shape (at least 2, at most max dimension).
inline std::size_t choose_anchor_stride(const Shape& shape,
                                        std::size_t max_stride =
                                            kMaxAnchorStride) {
  std::size_t max_dim = 0;
  for (int d = 0; d < shape.rank(); ++d)
    max_dim = std::max(max_dim, shape.dim(d));
  std::size_t s = 2;
  while (s * 2 <= max_stride && s * 2 <= max_dim) s *= 2;
  return s;
}

}  // namespace ocelot

namespace ocelot::kernels {

/// Fused multilevel hierarchy encode over `orig` (layout given by
/// `shape`), writing reconstructions into `recon` and codes/raws/
/// histogram into the quantizers. Stride-1 refinement passes (and
/// stride-1 anchors) quantize through `fine`; coarser levels through
/// `coarse` when given, else `fine`. Bit-identical to the reference
/// traversal + QuantEncoder composition on every dispatch level.
template <typename T>
void hierarchy_encode(const Shape& shape, const T* orig, std::span<T> recon,
                      std::size_t anchor_stride, bool cubic,
                      FusedQuant<T>& fine, FusedQuant<T>* coarse = nullptr);

/// Fused multilevel hierarchy decode: replays the code/raw streams of
/// `fine` (and `coarse`, split by level exactly as in
/// hierarchy_encode) into `recon`, whose layout `shape` gives.
/// Bit-identical to the reference traversal + QuantDecoder on every
/// dispatch level, including which hostile streams throw: running out
/// of codes or raw values raises CorruptStream.
template <typename T>
void hierarchy_decode(const Shape& shape, std::span<T> recon,
                      std::size_t anchor_stride, bool cubic,
                      QuantDecoder<T>& fine, QuantDecoder<T>* coarse = nullptr);

}  // namespace ocelot::kernels
