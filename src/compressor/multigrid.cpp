#include "compressor/multigrid.hpp"

#include <algorithm>
#include <vector>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "compressor/kernels/quant_kernels.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

/// The coarsen/correct order is the shared hierarchy visit order with
/// linear (order-1) interpolation only: coarsest nodal grid first,
/// then per-level linear corrections. The level picks the quantizer —
/// corrections at the finest level (s == 1) use the full bound, every
/// coarser level the tightened one.
class MultigridBackend final : public TypedBackend<MultigridBackend> {
 public:
  template <typename T>
  void encode_impl(const NdArray<T>& data, double abs_eb,
                   const CompressionConfig& config, SectionWriter& out) const {
    const std::size_t stride = choose_anchor_stride(data.shape());
    ArenaScope scope;
    std::span<T> recon = scope.arena().alloc<T>(data.size());
    std::fill(recon.begin(), recon.end(), T{});
    kernels::FusedQuant<T> coarse = kernels::FusedQuant<T>::make(
        abs_eb / kMultigridCoarseTighten, kDefaultQuantRadius, data.size(),
        scope.arena(), ScratchArena::Slot::kHistB);
    kernels::FusedQuant<T> fine = kernels::FusedQuant<T>::make(
        abs_eb, kDefaultQuantRadius, data.size(), scope.arena(),
        ScratchArena::Slot::kHistA);
    {
      OCELOT_SPAN("codec.predict_quantize");
      kernels::hierarchy_encode<T>(data.shape(), data.values().data(), recon,
                                   stride, /*cubic=*/false, fine, &coarse);
    }
    OCELOT_COUNT("codec.raw_bytes", data.size() * sizeof(T));
    const auto coarse_hist = coarse.hist_view(scope.arena());
    const auto fine_hist = fine.hist_view(scope.arena());
    out.add_streamed("mg_coarse_codes", [&](ByteSink& sink) {
      pack_codes_hist(coarse.codes_view(), coarse_hist, config, sink);
    });
    out.add_streamed("mg_coarse_raw", [&](ByteSink& sink) {
      pack_raw_values(coarse.raw_view(), config.lossless, sink);
    });
    out.add_streamed("codes", [&](ByteSink& sink) {
      pack_codes_hist(fine.codes_view(), fine_hist, config, sink);
    });
    out.add_streamed("raw", [&](ByteSink& sink) {
      pack_raw_values(fine.raw_view(), config.lossless, sink);
    });
  }

  template <typename T>
  void decode_impl(const BlobHeader& header, const SectionReader& in,
                   NdArray<T>& out) const {
    const std::size_t stride =
        choose_anchor_stride(header.shape, header.anchor_stride);
    ScratchLease<std::uint32_t> coarse_codes(
        ScratchPool<std::uint32_t>::shared());
    unpack_codes_into(in.get("mg_coarse_codes"), header.shape.size(),
                      *coarse_codes);
    ScratchLease<T> coarse_raw(ScratchPool<T>::shared());
    unpack_raw_values_into(in.get("mg_coarse_raw"), *coarse_raw);
    ScratchLease<std::uint32_t> fine_codes(
        ScratchPool<std::uint32_t>::shared());
    unpack_codes_into(in.get("codes"), header.shape.size(), *fine_codes);
    ScratchLease<T> fine_raw(ScratchPool<T>::shared());
    unpack_raw_values_into(in.get("raw"), *fine_raw);
    if (coarse_codes->size() + fine_codes->size() != header.shape.size())
      throw CorruptStream("blob: multigrid code count does not match shape");
    QuantDecoder<T> coarse(header.abs_eb / kMultigridCoarseTighten,
                           header.quant_radius, *coarse_codes, *coarse_raw);
    QuantDecoder<T> fine(header.abs_eb, header.quant_radius, *fine_codes,
                         *fine_raw);
    kernels::hierarchy_decode<T>(header.shape, out.values(), stride,
                                 /*cubic=*/false, fine, &coarse);
  }
};

}  // namespace

const CompressorBackend& multigrid_codec() {
  static const MultigridBackend codec;
  return codec;
}

}  // namespace ocelot
