#pragma once
// Runtime SIMD dispatch for the hot-path kernels.
//
// The vectorizable kernels are compiled twice — once with baseline
// x86-64 flags and once per extended ISA (currently AVX2) — and the
// implementation is chosen once per process from CPUID. Both builds
// execute the identical double-precision expression sequence (no FMA,
// no reassociated reductions), so the choice changes speed, never
// bytes; tests pin the level via force_simd_level() to prove it.

#include <cstddef>
#include <cstdint>

namespace ocelot::kernels {

enum class SimdLevel : int {
  kScalar = 0,  ///< baseline build, always present
  kAvx2 = 1,    ///< AVX2 build (x86-64 with GNU/Clang only)
};

/// The level the dispatched kernels will use: a forced level if one is
/// set, else CPUID detection (downgraded to scalar when the
/// OCELOT_NO_SIMD environment variable is set non-empty and not "0").
SimdLevel active_simd_level();

/// Whether this binary contains a kernel build for `level`.
bool simd_level_compiled(SimdLevel level);

/// Human-readable level name ("scalar", "avx2").
const char* simd_level_name(SimdLevel level);

/// Test hook: pins dispatch to `level` (clamped to scalar when that
/// build is absent) until reset_simd_level().
void force_simd_level(SimdLevel level);
void reset_simd_level();

/// Dispatched min/max scan over a u32 stream (the histogram range
/// probe). n == 0 yields lo = UINT32_MAX, hi = 0.
void u32_min_max(const std::uint32_t* v, std::size_t n, std::uint32_t& lo,
                 std::uint32_t& hi);

/// Dispatched value range (max - min) scan, bit-identical to
/// summarize(values).range: a NaN first element yields NaN, later NaNs
/// are skipped. n == 0 yields 0.
double value_range(const float* v, std::size_t n);

}  // namespace ocelot::kernels
