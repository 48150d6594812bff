// Baseline-ISA build of the kernel bodies. The vector pragmas expand
// to nothing here, so this TU compiles under the default flags (no
// -fopenmp-simd needed, keeping -Wunknown-pragmas quiet under
// -Werror) and serves as the fallback on any CPU.
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "compressor/kernels/kernels_isa.hpp"
#include "compressor/kernels/quant_common.hpp"

#define OCELOT_SIMD_LOOP
#define OCELOT_SIMD_COUNT
#define OCELOT_SIMD_MINMAX

namespace ocelot::kernels::scalar {
#include "compressor/kernels/line_kernels.inl"
}  // namespace ocelot::kernels::scalar
