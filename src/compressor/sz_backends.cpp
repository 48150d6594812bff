// The SZ-family backends (the four prediction pipelines of the legacy
// Pipeline enum, wire ids 0-3) and the backend table. Payload layout
// is bit-identical to the pre-table compressor (see the golden-blob
// test), so blobs written before the refactor still decode exactly.
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "compressor/backend.hpp"
#include "compressor/kernels/quant_kernels.hpp"
#include "compressor/multigrid.hpp"
#include "compressor/quantizer.hpp"
#include "compressor/regression.hpp"
#include "compressor/traversal.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

using kernels::FusedQuant;

/// Arena-backed reconstruction scratch: the block-parallel executor
/// compresses thousands of blocks per run, and per-block vectors were
/// the largest allocation source on that path. The arena span reuses
/// the worker's chunks, so steady-state blocks touch no heap at all.
std::span<float> recon_scratch(ScratchArena& arena, std::size_t n) {
  std::span<float> recon = arena.alloc<float>(n);
  std::fill(recon.begin(), recon.end(), 0.0f);
  return recon;
}

/// Runs the fused quantizing traversal `run(recon, quant)` and emits
/// the shared "codes"/"raw" sections — the common tail of every
/// SZ-style family. The quantizer's inline histogram feeds the entropy
/// stage directly, so no separate counting pass runs.
template <typename Run>
void quantized_encode(const FieldView& data, double abs_eb,
                      const CompressionConfig& config, SectionWriter& out,
                      Run&& run) {
  ArenaScope scope;
  std::span<float> recon = recon_scratch(scope.arena(), data.size());
  FusedQuant<float> quant =
      FusedQuant<float>::make(abs_eb, kDefaultQuantRadius, data.size(),
                              scope.arena(), ScratchArena::Slot::kHistA);
  {
    OCELOT_SPAN("codec.predict_quantize");
    run(recon, quant);
  }
  OCELOT_COUNT("codec.raw_bytes", data.values().size_bytes());
  const auto hist = quant.hist_view(scope.arena());
  out.add_streamed("codes", [&](ByteSink& sink) {
    pack_codes_hist(quant.codes_view(), hist, config, sink);
  });
  out.add_streamed("raw", [&](ByteSink& sink) {
    pack_raw_values(quant.raw_view(), config.lossless, sink);
  });
}

/// Unpacks the shared "codes"/"raw" sections into pooled scratch,
/// checks the code count against the shape, and hands a QuantDecoder
/// over them to `run(quant)` — the common head of every SZ-style
/// decode.
template <typename Run>
void quantized_decode(const BlobHeader& header, const SectionReader& in,
                      Run&& run) {
  ScratchLease<std::uint32_t> codes(ScratchPool<std::uint32_t>::shared());
  unpack_codes_into(in.get("codes"), header.shape.size(), *codes);
  ScratchLease<float> raw(ScratchPool<float>::shared());
  unpack_raw_values_into(in.get("raw"), header.shape.size(), *raw);
  if (codes->size() != header.shape.size())
    throw CorruptStream("blob: code count does not match shape");
  QuantDecoder<float> quant(header.abs_eb, header.quant_radius, *codes, *raw);
  run(quant);
}

/// Decode through a serial traversal `traverse(values, fn)` (the
/// Lorenzo family and SZ2, whose predictions feed on each other).
template <typename Traverse>
void traversal_decode(const BlobHeader& header, const SectionReader& in,
                      std::span<float> out, Traverse&& traverse) {
  quantized_decode(header, in, [&](QuantDecoder<float>& quant) {
    traverse(out, [&](std::size_t, double pred) { return quant.decode(pred); });
  });
}

class LorenzoBackend final : public CompressorBackend {
 public:
  void encode(const FieldView& data, double abs_eb,
              const CompressionConfig& config,
              SectionWriter& out) const override {
    const auto original = data.values();
    quantized_encode(data, abs_eb, config, out,
                     [&](std::span<float> recon, FusedQuant<float>& quant) {
                       lorenzo_traverse<float>(
                           data.shape(), recon,
                           [&](std::size_t idx, double pred) {
                             return quant.encode1(pred, original[idx]);
                           });
                     });
  }

  void decode(const BlobHeader& header, const SectionReader& in,
              std::span<float> out) const override {
    traversal_decode(header, in, out, [&](std::span<float> values, auto&& fn) {
      lorenzo_traverse<float>(header.shape, values, fn);
    });
  }
};

class Lorenzo2Backend final : public CompressorBackend {
 public:
  void encode(const FieldView& data, double abs_eb,
              const CompressionConfig& config,
              SectionWriter& out) const override {
    const auto original = data.values();
    quantized_encode(data, abs_eb, config, out,
                     [&](std::span<float> recon, FusedQuant<float>& quant) {
                       lorenzo2_traverse<float>(
                           data.shape(), recon,
                           [&](std::size_t idx, double pred) {
                             return quant.encode1(pred, original[idx]);
                           });
                     });
  }

  void decode(const BlobHeader& header, const SectionReader& in,
              std::span<float> out) const override {
    traversal_decode(header, in, out, [&](std::span<float> values, auto&& fn) {
      lorenzo2_traverse<float>(header.shape, values, fn);
    });
  }
};

class Sz3InterpBackend final : public CompressorBackend {
 public:
  void encode(const FieldView& data, double abs_eb,
              const CompressionConfig& config,
              SectionWriter& out) const override {
    const std::size_t stride = choose_anchor_stride(data.shape());
    quantized_encode(data, abs_eb, config, out,
                     [&](std::span<float> recon, FusedQuant<float>& quant) {
                       kernels::hierarchy_encode(data.shape(),
                                                 data.values().data(), recon,
                                                 stride, /*cubic=*/true, quant);
                     });
  }

  void decode(const BlobHeader& header, const SectionReader& in,
              std::span<float> out) const override {
    const std::size_t stride =
        choose_anchor_stride(header.shape, header.anchor_stride);
    quantized_decode(header, in, [&](QuantDecoder<float>& quant) {
      kernels::hierarchy_decode(header.shape, out, stride, /*cubic=*/true,
                                quant);
    });
  }
};

// Coefficients are quantized coarsely relative to the point bound: the
// final error is bounded by the point quantizer regardless, so this
// only trades prediction accuracy against coefficient storage.
double coeff_eb(double abs_eb, std::size_t block_size) {
  return abs_eb / static_cast<double>(2 * block_size);
}

/// A regression block codes at most one coefficient per dimension
/// plus the intercept.
constexpr std::size_t kMaxCoeffsPerBlock = 4;

/// Regression blocks of edge `block_size` that tile `shape`.
std::size_t regression_blocks(const Shape& shape, std::size_t block_size) {
  std::size_t n_blocks = 1;
  for (int d = 0; d < shape.rank(); ++d)
    n_blocks *= (shape.dim(d) + block_size - 1) / block_size;
  return n_blocks;
}

/// SZ2 oracle state shared between encode and decode: the previous
/// regression block's reconstructed coefficients seed the prediction of
/// the next block's coefficients.
struct CoeffPredictor {
  BlockCoeffs prev;
  double predict(int which) const {
    switch (which) {
      case 0:
        return prev.b0;
      case 1:
        return prev.b1;
      case 2:
        return prev.b2;
      default:
        return prev.b3;
    }
  }
  void update(const BlockCoeffs& recon) { prev = recon; }
};

/// Estimated block SSE for regression (with fitted coefficients) vs
/// Lorenzo (with original-value neighbors), both on original data; used
/// only for predictor selection, mirroring SZ2's sampling heuristic.
std::pair<double, double> block_sse(const FieldView& data,
                                    const BlockRegion& region,
                                    const BlockCoeffs& coeffs) {
  const Shape& shape = data.shape();
  const int rank = shape.rank();
  const std::size_t n1 = rank >= 2 ? shape.dim(1) : 1;
  const std::size_t n2 = rank >= 3 ? shape.dim(2) : 1;
  const std::size_t s1 = n1 * n2;
  const std::size_t s2 = n2;
  const auto vals = data.values();
  auto at = [&](std::size_t i, std::size_t j, std::size_t k) -> double {
    return static_cast<double>(vals[i * s1 + j * s2 + k]);
  };

  double sse_reg = 0.0, sse_lor = 0.0;
  for (std::size_t i = 0; i < region.len[0]; ++i) {
    for (std::size_t j = 0; j < region.len[1]; ++j) {
      for (std::size_t k = 0; k < region.len[2]; ++k) {
        const std::size_t gi = region.lo[0] + i;
        const std::size_t gj = region.lo[1] + j;
        const std::size_t gk = region.lo[2] + k;
        const double v = at(gi, gj, gk);
        const double pr = predict_block(coeffs, i, j, k);
        sse_reg += (v - pr) * (v - pr);

        const bool bi = gi > 0, bj = gj > 0, bk = gk > 0;
        double pl = 0.0;
        if (rank <= 1) {
          pl = bi ? at(gi - 1, 0, 0) : 0.0;
        } else if (rank == 2) {
          pl = (bi ? at(gi - 1, gj, 0) : 0.0) + (bj ? at(gi, gj - 1, 0) : 0.0) -
               (bi && bj ? at(gi - 1, gj - 1, 0) : 0.0);
        } else {
          pl = (bi ? at(gi - 1, gj, gk) : 0.0) +
               (bj ? at(gi, gj - 1, gk) : 0.0) +
               (bk ? at(gi, gj, gk - 1) : 0.0) -
               (bi && bj ? at(gi - 1, gj - 1, gk) : 0.0) -
               (bi && bk ? at(gi - 1, gj, gk - 1) : 0.0) -
               (bj && bk ? at(gi, gj - 1, gk - 1) : 0.0) +
               (bi && bj && bk ? at(gi - 1, gj - 1, gk - 1) : 0.0);
        }
        sse_lor += (v - pl) * (v - pl);
      }
    }
  }
  return {sse_reg, sse_lor};
}

class Sz2Backend final : public CompressorBackend {
 public:
  void encode(const FieldView& data, double abs_eb,
              const CompressionConfig& config,
              SectionWriter& out) const override {
    ArenaScope scope;
    std::span<float> recon = recon_scratch(scope.arena(), data.size());
    FusedQuant<float> quant =
        FusedQuant<float>::make(abs_eb, kDefaultQuantRadius, data.size(),
                                scope.arena(), ScratchArena::Slot::kHistA);
    const auto original = data.values();

    const Shape& shape = data.shape();
    const int rank = shape.rank();
    const std::size_t n_blocks = regression_blocks(shape, kSz2BlockSize);
    FusedQuant<double> coef_quant = FusedQuant<double>::make(
        coeff_eb(abs_eb, kSz2BlockSize), kDefaultQuantRadius,
        kMaxCoeffsPerBlock * n_blocks, scope.arena(),
        ScratchArena::Slot::kHistB);
    CoeffPredictor coef_pred;
    std::span<std::uint8_t> choices =
        scope.arena().alloc<std::uint8_t>(n_blocks);
    std::size_t n_choices = 0;

    auto oracle =
        [&](const BlockRegion& region) -> std::pair<bool, BlockCoeffs> {
      const BlockCoeffs fitted = fit_block_regression(data, region);
      const auto [sse_reg, sse_lor] = block_sse(data, region, fitted);
      const bool use_reg = sse_reg < sse_lor;
      choices[n_choices++] = use_reg ? 1 : 0;
      if (!use_reg) return {false, BlockCoeffs{}};
      BlockCoeffs recon_c;
      recon_c.b0 = coef_quant.encode1(coef_pred.predict(0), fitted.b0);
      recon_c.b1 = coef_quant.encode1(coef_pred.predict(1), fitted.b1);
      if (rank >= 2)
        recon_c.b2 = coef_quant.encode1(coef_pred.predict(2), fitted.b2);
      if (rank >= 3)
        recon_c.b3 = coef_quant.encode1(coef_pred.predict(3), fitted.b3);
      coef_pred.update(recon_c);
      return {true, recon_c};
    };
    {
      OCELOT_SPAN("codec.predict_quantize");
      block_traverse<float>(shape, recon, kSz2BlockSize, oracle,
                            [&](std::size_t idx, double pred) {
                              return quant.encode1(pred, original[idx]);
                            });
    }
    OCELOT_COUNT("codec.raw_bytes", original.size_bytes());

    const auto coef_hist = coef_quant.hist_view(scope.arena());
    const auto hist = quant.hist_view(scope.arena());
    out.add_streamed("choices", [&](ByteSink& sink) {
      lossless_compress(choices.first(n_choices), config.lossless, sink);
    });
    out.add_streamed("coef_codes", [&](ByteSink& sink) {
      pack_codes_hist(coef_quant.codes_view(), coef_hist, config, sink);
    });
    out.add_streamed("coef_raw", [&](ByteSink& sink) {
      pack_raw_values(coef_quant.raw_view(), config.lossless, sink);
    });
    out.add_streamed("codes", [&](ByteSink& sink) {
      pack_codes_hist(quant.codes_view(), hist, config, sink);
    });
    out.add_streamed("raw", [&](ByteSink& sink) {
      pack_raw_values(quant.raw_view(), config.lossless, sink);
    });
  }

  void decode(const BlobHeader& header, const SectionReader& in,
              std::span<float> out) const override {
    // One choice byte and at most kMaxCoeffsPerBlock coefficients per
    // regression block.
    const std::size_t n_blocks =
        regression_blocks(header.shape, header.block_size);
    ScratchLease<std::uint8_t> choice_bytes(
        ScratchPool<std::uint8_t>::shared());
    lossless_decompress_into(in.get("choices"), n_blocks, *choice_bytes);
    ScratchLease<std::uint32_t> coef_codes(
        ScratchPool<std::uint32_t>::shared());
    unpack_codes_into(in.get("coef_codes"), kMaxCoeffsPerBlock * n_blocks,
                      *coef_codes);
    ScratchLease<double> coef_raw(ScratchPool<double>::shared());
    unpack_raw_values_into(in.get("coef_raw"), kMaxCoeffsPerBlock * n_blocks,
                           *coef_raw);
    QuantDecoder<double> coef_quant(coeff_eb(header.abs_eb, header.block_size),
                                    kDefaultQuantRadius, *coef_codes,
                                    *coef_raw);
    CoeffPredictor coef_pred;
    std::size_t choice_pos = 0;
    const int rank = header.shape.rank();

    auto oracle = [&](const BlockRegion&) -> std::pair<bool, BlockCoeffs> {
      if (choice_pos >= choice_bytes->size())
        throw CorruptStream("blob: choice stream exhausted");
      const bool use_reg = (*choice_bytes)[choice_pos++] != 0;
      if (!use_reg) return {false, BlockCoeffs{}};
      BlockCoeffs c;
      c.b0 = coef_quant.decode(coef_pred.predict(0));
      c.b1 = coef_quant.decode(coef_pred.predict(1));
      if (rank >= 2) c.b2 = coef_quant.decode(coef_pred.predict(2));
      if (rank >= 3) c.b3 = coef_quant.decode(coef_pred.predict(3));
      coef_pred.update(c);
      return {true, c};
    };
    traversal_decode(header, in, out, [&](std::span<float> values, auto&& fn) {
      block_traverse<float>(header.shape, values, header.block_size, oracle,
                            fn);
    });
  }
};

}  // namespace

std::span<const BackendEntry> backends() {
  static const LorenzoBackend lorenzo;
  static const Sz2Backend sz2;
  static const Sz3InterpBackend sz3_interp;
  static const Lorenzo2Backend lorenzo2;
  // The row index is the wire id: append new families, never reorder
  // or reuse a row.
  static const BackendEntry table[] = {
      {0, "lorenzo", "pure first-order Lorenzo predictor (fast baseline)",
       lorenzo},
      {1, "sz2", "block regression + Lorenzo hybrid (SZ2 style)", sz2},
      {2, "sz3-interp", "multilevel cubic interpolation (SZ3 default)",
       sz3_interp},
      {3, "lorenzo2", "second-order Lorenzo predictor (linear-trend fields)",
       lorenzo2},
      {4, "multigrid",
       "MGARD-style multigrid: coarsen/correct hierarchy, per-level linear "
       "interpolation, tightened coarse-level quantization",
       multigrid_codec()},
  };
  return table;
}

}  // namespace ocelot
