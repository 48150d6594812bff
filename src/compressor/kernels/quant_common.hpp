#pragma once
// Fused quantizer state for the zero-alloc encode path.
//
// FusedQuant is the compress side of the quantizer: codes and raw
// values land in arena spans sized up front (no vector growth), and
// the symbol histogram the entropy stage needs is accumulated inline
// while quantizing, so the separate histogram pass over the code
// stream disappears. The count window lives in a persistent arena slot
// kept all-zero between blocks; hist_view() drains it back to zero
// while materializing the (symbol, count) pairs.
//
// The quantization rule is bit-identical to the reference
// QuantEncoder::encode (tests/support/quant_reference.hpp), but
// phrased without llround or int64 so the same expression sequence is
// vectorizable: q = floor(t) plus a half-away-from-zero tie fixup
// equals llround(t)'s classification for every finite t (for
// |t| >= 2^52, t is integral and the fraction is exactly 0), and all
// range checks happen on exact integral doubles.

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace ocelot::kernels {

template <typename T>
struct FusedQuant {
  double eb = 0.0;
  double bin = 0.0;
  double radius_d = 0.0;
  std::uint32_t radius = 0;

  std::uint32_t* codes = nullptr;  ///< arena span, capacity = sample count
  std::size_t n_codes = 0;
  T* raw = nullptr;  ///< arena span, capacity = sample count
  std::size_t n_raw = 0;

  std::uint64_t* hist = nullptr;  ///< persistent window over [0, 2*radius)
  std::uint32_t lo = 0xffffffffu;  ///< min nonzero code seen
  std::uint32_t hi = 0;            ///< max nonzero code seen
  std::uint64_t n_zero = 0;        ///< unpredictable (code 0) count

  /// Sets up a quantizer for up to `n` samples. The count window binds
  /// to the persistent `slot` (zeroed only when (re)allocated, then
  /// kept zero by hist_view), so each concurrently live quantizer on a
  /// thread needs its own slot.
  static FusedQuant make(double abs_eb, std::uint32_t radius, std::size_t n,
                         ScratchArena& arena, ScratchArena::Slot slot) {
    require(abs_eb > 0.0, "FusedQuant: error bound must be positive");
    require(radius >= 2, "FusedQuant: radius too small");
    FusedQuant q;
    q.eb = abs_eb;
    q.bin = 2.0 * abs_eb;
    q.radius_d = static_cast<double>(radius);
    q.radius = radius;
    q.codes = arena.alloc<std::uint32_t>(n).data();
    q.raw = arena.alloc<T>(n).data();
    const std::size_t window = 2 * static_cast<std::size_t>(radius);
    const ScratchArena::Persistent p =
        arena.persistent(slot, window * sizeof(std::uint64_t));
    q.hist = reinterpret_cast<std::uint64_t*>(p.bytes.data());
    if (p.fresh) {
      for (std::size_t i = 0; i < window; ++i) q.hist[i] = 0;
    }
    return q;
  }

  /// Quantizes one sample; returns the reconstruction to store (the
  /// original value for unpredictable samples). Bit-identical to the
  /// reference QuantEncoder::encode.
  T encode1(double pred, T real) {
    const double diff = static_cast<double>(real) - pred;
    const double t = diff / bin;
    const double fl = std::floor(t);
    const double fr = t - fl;
    const double qd = (fr > 0.5 || (fr == 0.5 && t > 0.0)) ? fl + 1.0 : fl;
    // diff - diff filters NaN and Inf in one comparison.
    bool ok = (diff - diff == 0.0) && qd > -radius_d && qd < radius_d;
    const double qc = ok ? qd : 0.0;
    const double recd = ok ? pred + qc * bin : 0.0;
    const T rec = static_cast<T>(recd);
    ok = ok && std::abs(static_cast<double>(rec) - static_cast<double>(real)) <=
                   eb;
    const double codef = ok ? radius_d + qc : 0.0;
    const auto code =
        static_cast<std::uint32_t>(static_cast<std::int32_t>(codef));
    codes[n_codes++] = code;
    if (code == 0) {
      raw[n_raw++] = real;
      ++n_zero;
      return real;
    }
    ++hist[code];
    if (code < lo) lo = code;
    if (code > hi) hi = code;
    return rec;
  }

  [[nodiscard]] std::span<const std::uint32_t> codes_view() const {
    return {codes, n_codes};
  }
  [[nodiscard]] std::span<const T> raw_view() const { return {raw, n_raw}; }

  /// Materializes the symbol-sorted histogram of the emitted codes
  /// into `arena` and clears the persistent window back to all-zero.
  /// Call exactly once, after the last encode1.
  std::span<const std::pair<std::uint32_t, std::uint64_t>> hist_view(
      ScratchArena& arena) {
    std::size_t unique = n_zero > 0 ? 1 : 0;
    if (lo <= hi) {
      for (std::uint32_t c = lo; c <= hi; ++c) unique += hist[c] != 0 ? 1 : 0;
    }
    std::span<std::pair<std::uint32_t, std::uint64_t>> out =
        arena.alloc<std::pair<std::uint32_t, std::uint64_t>>(unique);
    std::size_t k = 0;
    if (n_zero > 0) out[k++] = {0, n_zero};
    if (lo <= hi) {
      for (std::uint32_t c = lo; c <= hi; ++c) {
        if (hist[c] != 0) {
          out[k++] = {c, hist[c]};
          hist[c] = 0;
        }
      }
    }
    return out;
  }
};

}  // namespace ocelot::kernels
