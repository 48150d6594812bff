#include "compressor/kernels/quant_kernels.hpp"

#include <algorithm>
#include <array>

#include "compressor/kernels/kernels_isa.hpp"

namespace ocelot::kernels {

namespace {

template <typename T>
using EncodeLineFn = void (*)(const T*, T*, std::size_t, std::size_t,
                              std::size_t, std::size_t, int, FusedQuant<T>&);
template <typename T>
using DecodeLineFn = void (*)(T*, std::size_t, std::size_t, std::size_t,
                              std::size_t, int, QuantDecoder<T>&);

template <typename T>
EncodeLineFn<T> pick_encode_line() {
#ifdef OCELOT_HAVE_AVX2_TU
  if (active_simd_level() == SimdLevel::kAvx2)
    return static_cast<EncodeLineFn<T>>(&avx2::encode_line);
#endif
  return static_cast<EncodeLineFn<T>>(&scalar::encode_line);
}

template <typename T>
DecodeLineFn<T> pick_decode_line() {
#ifdef OCELOT_HAVE_AVX2_TU
  if (active_simd_level() == SimdLevel::kAvx2)
    return static_cast<DecodeLineFn<T>>(&avx2::decode_line);
#endif
  return static_cast<DecodeLineFn<T>>(&scalar::decode_line);
}

/// The hierarchy_traverse visit order, shared by encode and decode.
/// `anchor(q, idx, pred)` codes one stride-S anchor and stores its
/// reconstruction into rec[idx]; `line(q, base, estep, cnt, eoff,
/// mode)` codes one run of a refinement line under a single predictor
/// mode. Q is the per-level quantizer state (FusedQuant on encode,
/// QuantDecoder on decode): stride-1 passes (and stride-1 anchors) use
/// `fine`, coarser levels `coarse` when given, else `fine`.
template <typename T, typename Q, typename Anchor, typename Line>
void hierarchy_walk(const Shape& shape, const T* rec,
                    std::size_t anchor_stride, bool cubic, Q& fine, Q* coarse,
                    Anchor&& anchor, Line&& line) {
  const int rank = shape.rank();
  const std::array<std::size_t, 3> n = {shape.dim(0),
                                        rank >= 2 ? shape.dim(1) : 1,
                                        rank >= 3 ? shape.dim(2) : 1};
  const std::size_t s1 = n[1] * n[2];
  const std::size_t s2 = n[2];
  const std::array<std::size_t, 3> estride = {s1, s2, 1};
  auto val = [&](std::size_t i, std::size_t j, std::size_t k) -> double {
    return static_cast<double>(rec[i * s1 + j * s2 + k]);
  };

  const std::size_t S = anchor_stride;
  Q& anchor_q = (S == 1 || coarse == nullptr) ? fine : *coarse;

  // Phase 1: anchors at stride S, Lorenzo over already-coded anchors
  // (serial — the prediction reads reconstructions this loop writes).
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
        anchor(anchor_q, i * s1 + j * s2 + k, pred);
      }
    }
  }
  if (S == 1) return;

  // The line axis: the last dimension with more than one grid point.
  // Later dimensions are singletons, so fusing the innermost loops
  // along it preserves the exact raster visit order (and therefore the
  // exact code-stream order) of hierarchy_traverse.
  const std::size_t ld = n[2] > 1 ? 2 : (n[1] > 1 ? 1 : 0);
  const std::size_t o0 = ld == 0 ? 1 : 0;
  const std::size_t o1 = ld == 2 ? 1 : 2;

  // Phase 2: refinement passes, dimension by dimension per level.
  for (std::size_t s = S / 2; s >= 1; s /= 2) {
    Q& q = (s == 1 || coarse == nullptr) ? fine : *coarse;
    for (int d = 0; d < rank; ++d) {
      const auto du = static_cast<std::size_t>(d);
      std::array<std::size_t, 3> start{};
      std::array<std::size_t, 3> step{};
      for (std::size_t e = 0; e < 3; ++e) {
        if (e == du) {
          start[e] = s;
          step[e] = 2 * s;
        } else if (e < du) {
          start[e] = 0;
          step[e] = s;
        } else {
          start[e] = 0;
          step[e] = 2 * s;
        }
      }
      const std::size_t nd = n[du];
      if (start[ld] >= n[ld]) continue;
      const std::size_t cnt = (n[ld] - start[ld] - 1) / step[ld] + 1;
      const std::size_t estep = step[ld] * estride[ld];

      // Line segmentation for passes refining along the line axis:
      // point t sits at coordinate x_t = s + 2*s*t, so only t >= 1 can
      // be cubic, only the last point can be a border copy, and the
      // cubic run ends where x_t + 3*s < nd stops holding.
      std::size_t t_copy = cnt;
      std::size_t c_end = 0;
      if (du == ld) {
        if (start[ld] + (cnt - 1) * step[ld] + s >= nd) t_copy = cnt - 1;
        if (cubic && nd > 4 * s) c_end = (nd - 4 * s - 1) / (2 * s) + 1;
        c_end = std::min(c_end, t_copy);
      }

      for (std::size_t a = start[o0]; a < n[o0]; a += step[o0]) {
        for (std::size_t b = start[o1]; b < n[o1]; b += step[o1]) {
          std::array<std::size_t, 3> c{};
          c[o0] = a;
          c[o1] = b;
          c[ld] = start[ld];
          const std::size_t base = c[0] * s1 + c[1] * s2 + c[2];
          if (du != ld) {
            // The coordinate along d is fixed for the whole line, so
            // one interpolation mode covers it.
            const std::size_t x = c[du];
            int mode = 0;
            if (x + s < nd)
              mode = (cubic && x >= 3 * s && x + 3 * s < nd) ? 2 : 1;
            line(q, base, estep, cnt, s * estride[du], mode);
          } else {
            const std::size_t eoff = s * estride[ld];
            const std::size_t c_beg = std::min<std::size_t>(1, t_copy);
            if (c_end > c_beg) {
              line(q, base, estep, c_beg, eoff, 1);
              line(q, base + c_beg * estep, estep, c_end - c_beg, eoff, 2);
              if (t_copy > c_end)
                line(q, base + c_end * estep, estep, t_copy - c_end, eoff, 1);
            } else if (t_copy > 0) {
              line(q, base, estep, t_copy, eoff, 1);
            }
            if (cnt > t_copy)
              line(q, base + t_copy * estep, estep, cnt - t_copy, eoff, 0);
          }
        }
      }
    }
    if (s == 1) break;
  }
}

}  // namespace

void u32_min_max(const std::uint32_t* v, std::size_t n, std::uint32_t& lo,
                 std::uint32_t& hi) {
#ifdef OCELOT_HAVE_AVX2_TU
  if (active_simd_level() == SimdLevel::kAvx2) {
    avx2::u32_min_max(v, n, lo, hi);
    return;
  }
#endif
  scalar::u32_min_max(v, n, lo, hi);
}

double value_range(const float* v, std::size_t n) {
#ifdef OCELOT_HAVE_AVX2_TU
  if (active_simd_level() == SimdLevel::kAvx2) return avx2::value_range(v, n);
#endif
  return scalar::value_range(v, n);
}

double value_range(const double* v, std::size_t n) {
#ifdef OCELOT_HAVE_AVX2_TU
  if (active_simd_level() == SimdLevel::kAvx2) return avx2::value_range(v, n);
#endif
  return scalar::value_range(v, n);
}

template <typename T>
void hierarchy_encode(const Shape& shape, const T* orig, std::span<T> recon,
                      std::size_t anchor_stride, bool cubic,
                      FusedQuant<T>& fine, FusedQuant<T>* coarse) {
  T* rec = recon.data();
  const EncodeLineFn<T> encode_line = pick_encode_line<T>();
  hierarchy_walk(
      shape, rec, anchor_stride, cubic, fine, coarse,
      [&](FusedQuant<T>& q, std::size_t idx, double pred) {
        rec[idx] = q.encode1(pred, orig[idx]);
      },
      [&](FusedQuant<T>& q, std::size_t base, std::size_t estep,
          std::size_t cnt, std::size_t eoff, int mode) {
        encode_line(orig, rec, base, estep, cnt, eoff, mode, q);
      });
}

template <typename T>
void hierarchy_decode(const Shape& shape, std::span<T> recon,
                      std::size_t anchor_stride, bool cubic,
                      QuantDecoder<T>& fine, QuantDecoder<T>* coarse) {
  T* rec = recon.data();
  const DecodeLineFn<T> decode_line = pick_decode_line<T>();
  hierarchy_walk(
      shape, rec, anchor_stride, cubic, fine, coarse,
      [&](QuantDecoder<T>& q, std::size_t idx, double pred) {
        rec[idx] = q.decode(pred);
      },
      [&](QuantDecoder<T>& q, std::size_t base, std::size_t estep,
          std::size_t cnt, std::size_t eoff, int mode) {
        decode_line(rec, base, estep, cnt, eoff, mode, q);
      });
}

template void hierarchy_encode<float>(const Shape&, const float*,
                                      std::span<float>, std::size_t, bool,
                                      FusedQuant<float>&, FusedQuant<float>*);
template void hierarchy_encode<double>(const Shape&, const double*,
                                       std::span<double>, std::size_t, bool,
                                       FusedQuant<double>&,
                                       FusedQuant<double>*);
template void hierarchy_decode<float>(const Shape&, std::span<float>,
                                      std::size_t, bool, QuantDecoder<float>&,
                                      QuantDecoder<float>*);
template void hierarchy_decode<double>(const Shape&, std::span<double>,
                                       std::size_t, bool,
                                       QuantDecoder<double>&,
                                       QuantDecoder<double>*);

}  // namespace ocelot::kernels
