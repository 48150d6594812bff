#pragma once
// Dispatched fused hierarchy kernels.
//
// hierarchy_encode / hierarchy_decode are the SIMD-dispatched, fused
// replacements for hierarchy_traverse + QuantEncoder / QuantDecoder:
// same visit order, same predictions, same (de)quantization —
// vectorized along each refinement line, since within a pass every
// point's neighbors come from earlier passes (no loop-carried
// dependency). Both walk one shared visit-order template, so encode
// and decode cannot drift apart. The Lorenzo and block-regression
// traversals carry a serial dependency through the reconstruction
// feedback, so they stay on the traversal templates (fused through
// FusedQuant::encode1 on encode, QuantDecoder on decode).
//
// hierarchy_traverse remains the reference: golden blobs pin the
// encode bytes, and tests/test_kernels.cpp checks hierarchy_decode
// against it + QuantDecoder on every dispatch level.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/ndarray.hpp"
#include "compressor/kernels/dispatch.hpp"
#include "compressor/kernels/quant_common.hpp"
#include "compressor/quantizer.hpp"

namespace ocelot::kernels {

/// Fused multilevel hierarchy encode over `orig` (layout given by
/// `shape`), writing reconstructions into `recon` and codes/raws/
/// histogram into the quantizers. Stride-1 refinement passes (and
/// stride-1 anchors) quantize through `fine`; coarser levels through
/// `coarse` when given, else `fine` — mirroring the level-aware
/// callback of hierarchy_traverse. Bit-identical to the traversal +
/// QuantEncoder composition on every dispatch level.
template <typename T>
void hierarchy_encode(const Shape& shape, const T* orig, std::span<T> recon,
                      std::size_t anchor_stride, bool cubic,
                      FusedQuant<T>& fine, FusedQuant<T>* coarse = nullptr);

/// Fused multilevel hierarchy decode: replays the code/raw streams of
/// `fine` (and `coarse`, split by level exactly as in
/// hierarchy_encode) into `recon`, whose layout `shape` gives.
/// Bit-identical to hierarchy_traverse + QuantDecoder on every
/// dispatch level, including which hostile streams throw: running out
/// of codes or raw values raises CorruptStream.
template <typename T>
void hierarchy_decode(const Shape& shape, std::span<T> recon,
                      std::size_t anchor_stride, bool cubic,
                      QuantDecoder<T>& fine, QuantDecoder<T>* coarse = nullptr);

}  // namespace ocelot::kernels
