#pragma once
// Per-ISA kernel entry points (internal to the kernels layer). Each
// namespace is one build of line_kernels.inl; quant_kernels.cpp picks
// one at runtime via dispatch.hpp. User code should not call these
// directly — use the dispatched wrappers in quant_kernels.hpp.

#include <cstddef>
#include <cstdint>

#include "compressor/kernels/quant_common.hpp"
#include "compressor/quantizer.hpp"

namespace ocelot::kernels::scalar {
void u32_min_max(const std::uint32_t* v, std::size_t n, std::uint32_t& lo_out,
                 std::uint32_t& hi_out);
double value_range(const float* v, std::size_t n);
double value_range(const double* v, std::size_t n);
void encode_line(const float* orig, float* recon, std::size_t base,
                 std::size_t estep, std::size_t cnt, std::size_t eoff,
                 int mode, FusedQuant<float>& q);
void encode_line(const double* orig, double* recon, std::size_t base,
                 std::size_t estep, std::size_t cnt, std::size_t eoff,
                 int mode, FusedQuant<double>& q);
void decode_line(float* recon, std::size_t base, std::size_t estep,
                 std::size_t cnt, std::size_t eoff, int mode,
                 QuantDecoder<float>& q);
void decode_line(double* recon, std::size_t base, std::size_t estep,
                 std::size_t cnt, std::size_t eoff, int mode,
                 QuantDecoder<double>& q);
}  // namespace ocelot::kernels::scalar

#ifdef OCELOT_HAVE_AVX2_TU
namespace ocelot::kernels::avx2 {
void u32_min_max(const std::uint32_t* v, std::size_t n, std::uint32_t& lo_out,
                 std::uint32_t& hi_out);
double value_range(const float* v, std::size_t n);
double value_range(const double* v, std::size_t n);
void encode_line(const float* orig, float* recon, std::size_t base,
                 std::size_t estep, std::size_t cnt, std::size_t eoff,
                 int mode, FusedQuant<float>& q);
void encode_line(const double* orig, double* recon, std::size_t base,
                 std::size_t estep, std::size_t cnt, std::size_t eoff,
                 int mode, FusedQuant<double>& q);
void decode_line(float* recon, std::size_t base, std::size_t estep,
                 std::size_t cnt, std::size_t eoff, int mode,
                 QuantDecoder<float>& q);
void decode_line(double* recon, std::size_t base, std::size_t estep,
                 std::size_t cnt, std::size_t eoff, int mode,
                 QuantDecoder<double>& q);
}  // namespace ocelot::kernels::avx2
#endif
