// AVX2 build of the kernel bodies. CMake compiles this TU with
// -mavx2 -mno-fma -fopenmp-simd -fno-trapping-math (x86-64 + GNU/Clang
// only; elsewhere OCELOT_HAVE_AVX2_TU is undefined and this TU is
// empty). -mno-fma matters: without FMA instructions the compiler
// cannot contract a*b+c, so the vector code rounds exactly like the
// scalar build. -fno-trapping-math lets GCC if-convert the kernels'
// FP selects; it changes no IEEE result (see line_kernels.inl).
#ifdef OCELOT_HAVE_AVX2_TU

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "compressor/kernels/kernels_isa.hpp"
#include "compressor/kernels/quant_common.hpp"

#define OCELOT_SIMD_LOOP _Pragma("omp simd")
#define OCELOT_SIMD_COUNT _Pragma("omp simd reduction(+ : zeros)")
#define OCELOT_SIMD_MINMAX \
  _Pragma("omp simd reduction(min : lo) reduction(max : hi)")

namespace ocelot::kernels::avx2 {
#include "compressor/kernels/line_kernels.inl"
}  // namespace ocelot::kernels::avx2

#endif  // OCELOT_HAVE_AVX2_TU
