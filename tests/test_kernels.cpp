// Bit-exactness and dispatch properties of the SIMD hot-path kernels.
//
// The dispatch contract says the ISA level changes speed, never bytes:
// every backend must emit an identical blob whether the vectorized or
// the scalar kernel build runs, including through the non-finite raw
// path. These tests pin the level with force_simd_level() and compare
// whole compressed blobs across all registered backends and ranks,
// then cover the arena and wide-symbol Huffman edges the fused
// path leans on. The hierarchy decode kernel is checked directly
// against the reference traversal + QuantDecoder, on honest streams
// and on hostile ones.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "codec/huffman.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "compressor/kernels/dispatch.hpp"
#include "compressor/kernels/quant_kernels.hpp"
#include "compressor/multigrid.hpp"
#include "compressor/quantizer.hpp"
#include "support/quant_reference.hpp"

namespace ocelot {
namespace {

using kernels::SimdLevel;

/// Restores automatic dispatch even when an assertion throws.
struct ForcedLevel {
  explicit ForcedLevel(SimdLevel level) { kernels::force_simd_level(level); }
  ~ForcedLevel() { kernels::reset_simd_level(); }
};

/// Smooth field plus noise: exercises both the quantized fast path and
/// occasional large residuals.
FloatArray make_field(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(shape.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = static_cast<double>(i);
    values[i] = static_cast<float>(std::sin(x * 0.021) +
                                   std::cos(x * 0.0047) +
                                   rng.normal(0.0, 0.05));
  }
  return FloatArray(shape, std::move(values));
}

FloatArray with_nonfinite(FloatArray field, std::uint64_t seed) {
  Rng rng(seed);
  const auto v = field.values();
  for (int k = 0; k < 17; ++k) {
    const auto i =
        static_cast<std::size_t>(rng.uniform_int(0, v.size() - 1));
    switch (k % 3) {
      case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v[i] = std::numeric_limits<float>::infinity(); break;
      default: v[i] = -std::numeric_limits<float>::infinity(); break;
    }
  }
  return field;
}

std::vector<Shape> test_shapes() {
  return {Shape(257), Shape(19, 23), Shape(9, 12, 14)};
}

void expect_blobs_match_across_levels(const FloatArray& field,
                                      const std::string& backend) {
  CompressionConfig config;
  config.backend = backend;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = 1e-3;

  Bytes scalar_blob;
  {
    ForcedLevel forced(SimdLevel::kScalar);
    scalar_blob = compress(field, config);
  }
  // Automatic dispatch: on AVX2 hardware this runs the vectorized
  // build, elsewhere it degenerates to scalar-vs-scalar (still a valid
  // determinism check).
  const Bytes auto_blob = compress(field, config);
  ASSERT_EQ(scalar_blob, auto_blob)
      << backend << ": "
      << kernels::simd_level_name(kernels::active_simd_level())
      << " dispatch changed the compressed bytes";

  // Round-trip: every element is within the bound or reproduced via
  // the raw path (non-finite and failed reconstructions are exact, so
  // the error is 0 or NaN — never greater than eb).
  const FloatArray decoded = decompress(auto_blob);
  ASSERT_EQ(decoded.shape().size(), field.shape().size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    const double err = std::abs(static_cast<double>(field.values()[i]) -
                                static_cast<double>(decoded.values()[i]));
    EXPECT_FALSE(err > config.eb) << backend << " element " << i;
  }
}

TEST(Kernels, SimdAndScalarBlobsAreByteIdentical) {
  for (const std::string& backend : registered_backend_names()) {
    for (const Shape& shape : test_shapes()) {
      expect_blobs_match_across_levels(make_field(shape, 11), backend);
    }
  }
}

TEST(Kernels, NonFiniteValuesTakeTheRawPathIdentically) {
  const Shape shape(9, 12, 14);
  for (const std::string& backend : registered_backend_names()) {
    expect_blobs_match_across_levels(
        with_nonfinite(make_field(shape, 31), 5), backend);
  }
}

TEST(Kernels, ForcedScalarPinsDispatch) {
  {
    ForcedLevel forced(SimdLevel::kScalar);
    EXPECT_EQ(kernels::active_simd_level(), SimdLevel::kScalar);
  }
  // After reset, the detected level must be one this binary contains.
  EXPECT_TRUE(kernels::simd_level_compiled(kernels::active_simd_level()));
  EXPECT_TRUE(kernels::simd_level_compiled(SimdLevel::kScalar));
  EXPECT_STREQ(kernels::simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(kernels::simd_level_name(SimdLevel::kAvx2), "avx2");
}

TEST(Kernels, ForcingAnAbsentLevelClampsToScalar) {
  ForcedLevel forced(SimdLevel::kAvx2);
  const SimdLevel active = kernels::active_simd_level();
  EXPECT_TRUE(kernels::simd_level_compiled(active));
}

TEST(Kernels, U32MinMaxMatchesScalarScan) {
  Rng rng(71);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u, 4096u}) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) {
      x = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    }
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    kernels::u32_min_max(v.data(), v.size(), lo, hi);
    if (n == 0) {
      EXPECT_EQ(lo, std::numeric_limits<std::uint32_t>::max());
      EXPECT_EQ(hi, 0u);
      continue;
    }
    std::uint32_t want_lo = v[0];
    std::uint32_t want_hi = v[0];
    for (const std::uint32_t x : v) {
      want_lo = std::min(want_lo, x);
      want_hi = std::max(want_hi, x);
    }
    EXPECT_EQ(lo, want_lo);
    EXPECT_EQ(hi, want_hi);
  }
}

/// Bit pattern of a double: NaN payloads and zero signs compare too.
std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

void expect_range_like_summarize(const std::vector<float>& v,
                                 const std::string& what) {
  const double want = summarize(std::span<const float>(v)).range;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ForcedLevel forced(level);
    EXPECT_EQ(bits_of(kernels::value_range(v.data(), v.size())),
              bits_of(want))
        << what << " n=" << v.size() << " level "
        << kernels::simd_level_name(kernels::active_simd_level());
  }
}

TEST(Kernels, ValueRangeIsBitIdenticalToSummarize) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  Rng rng(211);
  const auto pick = [&](std::initializer_list<float> pool) {
    const auto k = rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1);
    return *(pool.begin() + k);
  };
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 10.0));
    expect_range_like_summarize(v, "normal");
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<float> w = v;
      w[at] = nan;
      expect_range_like_summarize(w, "NaN at " + std::to_string(at));
      w = v;
      w[at] = at % 2 == 0 ? inf : -inf;
      expect_range_like_summarize(w, "Inf at " + std::to_string(at));
    }
    // Signed zeros as the minimum, the maximum, and every value.
    for (int trial = 0; trial < 8; ++trial) {
      for (auto& x : v) x = pick({0.0f, -0.0f, 1.0f, 2.5f});
      expect_range_like_summarize(v, "zeros below");
      for (auto& x : v) x = pick({0.0f, -0.0f, -1.0f, -2.5f});
      expect_range_like_summarize(v, "zeros above");
      for (auto& x : v) x = pick({0.0f, -0.0f});
      expect_range_like_summarize(v, "zeros only");
      for (auto& x : v) x = pick({inf, -inf, 0.0f, nan});
      expect_range_like_summarize(v, "non-finite mix");
      for (auto& x : v) x = pick({tiny, -tiny, 2.0f * tiny, 0.0f, -0.0f});
      expect_range_like_summarize(v, "denormals");
    }
    std::fill(v.begin(), v.end(), inf);
    expect_range_like_summarize(v, "all +Inf");
  }
  std::vector<float> longer(4099);
  for (auto& x : longer) x = static_cast<float>(rng.normal(0.0, 1.0));
  expect_range_like_summarize(longer, "normal");
  longer[4098] = nan;
  longer[17] = -0.0f;
  expect_range_like_summarize(longer, "late NaN");
  EXPECT_EQ(kernels::value_range(nullptr, 0), 0.0);
}

TEST(Kernels, HuffmanWideSymbolRangeUsesSortedFallback) {
  // A symbol span far beyond the dense-window guard (1 << 17) forces
  // the sorted histogram and the lower_bound emit path; the decoder
  // must still invert exactly.
  Rng rng(101);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 4000; ++i) {
    symbols.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, 40)) * 1000003u);
  }
  BytesWriter writer;
  huffman_encode(symbols, writer);
  std::vector<std::uint32_t> decoded;
  huffman_decode_into(writer.bytes(), symbols.size(), decoded);
  EXPECT_EQ(decoded, symbols);
}

TEST(Kernels, HuffmanHistOverloadMatchesCountingPath) {
  Rng rng(131);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_int(100, 180)));
  }
  const auto hist = histogram_symbols(symbols);
  BytesWriter with_hist;
  huffman_encode(symbols, hist, with_hist);
  BytesWriter counting;
  huffman_encode(symbols, counting);
  EXPECT_EQ(with_hist.bytes(), counting.bytes());
}

TEST(Kernels, ArenaRewindReusesStorageAndKeepsPersistentSlots) {
  ScratchArena& arena = ScratchArena::current();
  const auto mark = arena.mark();
  const std::span<std::uint32_t> a = arena.alloc<std::uint32_t>(1024);
  std::uint32_t* const first = a.data();
  arena.rewind(mark);
  const std::span<std::uint32_t> b = arena.alloc<std::uint32_t>(1024);
  EXPECT_EQ(b.data(), first) << "rewind must recycle the same storage";
  arena.rewind(mark);

  auto slot =
      arena.persistent(ScratchArena::Slot::kHistA, 64 * sizeof(std::uint64_t));
  std::memset(slot.bytes.data(), 0xAB, slot.bytes.size());
  {
    ArenaScope scope;
    (void)scope.arena().alloc<double>(4096);
  }
  auto again =
      arena.persistent(ScratchArena::Slot::kHistA, 64 * sizeof(std::uint64_t));
  EXPECT_FALSE(again.fresh) << "same-size reacquire must keep contents";
  EXPECT_EQ(again.bytes.data(), slot.bytes.data());
  EXPECT_EQ(static_cast<unsigned char>(again.bytes[7]), 0xABu);

  // Growth request beyond any capacity earlier tests could have left
  // behind (the fused quantizer's window is 512 KiB).
  auto grown = arena.persistent(ScratchArena::Slot::kHistA, std::size_t{1}
                                                                << 23);
  EXPECT_TRUE(grown.fresh) << "growth must report a fresh buffer";
  // Restore the slot invariant the fused histogram relies on (window
  // left all-zero), since this arena is shared with other tests.
  std::memset(grown.bytes.data(), 0, grown.bytes.size());
}

TEST(Kernels, ArenaScopeComposesWithNestedScopes) {
  ScratchArena& arena = ScratchArena::current();
  ArenaScope outer;
  const std::span<std::uint8_t> keep = outer.arena().alloc<std::uint8_t>(64);
  std::memset(keep.data(), 0x5C, keep.size());
  {
    ArenaScope inner;
    (void)inner.arena().alloc<std::uint8_t>(1 << 16);
  }
  // The outer allocation survives the inner scope's rewind.
  EXPECT_EQ(keep[63], 0x5C);
  (void)arena;
}


// ------------------------------------------------------ hierarchy decode

/// Code and raw streams of one quantizer (the fine or coarse level).
struct Streams {
  std::vector<std::uint32_t> codes;
  std::vector<float> raw;
};

/// One hierarchy stream set: sz3-interp (cubic, fine only) or
/// multigrid (linear, coarse levels under a tightened bound).
struct HierarchyCase {
  Shape shape;
  std::size_t stride = 2;
  bool multigrid = false;
  double eb = 1e-3;
  std::uint32_t radius = kDefaultQuantRadius;
  Streams fine;
  Streams coarse;
};

double coarse_eb(const HierarchyCase& c) {
  return c.eb / kMultigridCoarseTighten;
}

/// Encodes `field` with the fused kernel to get realistic streams.
HierarchyCase encode_case(const Shape& shape, const std::vector<float>& field,
                             std::size_t stride_cap, bool multigrid,
                             std::uint32_t radius) {
  HierarchyCase c;
  c.shape = shape;
  c.stride = choose_anchor_stride(shape, stride_cap);
  c.multigrid = multigrid;
  c.radius = radius;
  ArenaScope scope;
  std::span<float> recon = scope.arena().alloc<float>(field.size());
  std::fill(recon.begin(), recon.end(), 0.0f);
  auto fine = kernels::FusedQuant<float>::make(c.eb, radius, field.size(),
                                           scope.arena(),
                                           ScratchArena::Slot::kHistA);
  auto coarse = kernels::FusedQuant<float>::make(coarse_eb(c), radius,
                                             field.size(), scope.arena(),
                                             ScratchArena::Slot::kHistB);
  kernels::hierarchy_encode(shape, field.data(), recon, c.stride,
                               /*cubic=*/!multigrid, fine,
                               multigrid ? &coarse : nullptr);
  // Drain the persistent histogram windows back to all-zero.
  (void)fine.hist_view(scope.arena());
  (void)coarse.hist_view(scope.arena());
  c.fine.codes.assign(fine.codes_view().begin(), fine.codes_view().end());
  c.fine.raw.assign(fine.raw_view().begin(), fine.raw_view().end());
  c.coarse.codes.assign(coarse.codes_view().begin(),
                        coarse.codes_view().end());
  c.coarse.raw.assign(coarse.raw_view().begin(), coarse.raw_view().end());
  return c;
}

/// Reference decode: the oracle traversal + QuantDecoder. nullopt when
/// the streams are rejected.
std::optional<std::vector<float>> reference_decode(const HierarchyCase& c) {
  std::vector<float> out(c.shape.size(), 0.0f);
  QuantDecoder<float> fine(c.eb, c.radius, c.fine.codes, c.fine.raw);
  QuantDecoder<float> coarse(coarse_eb(c), c.radius, c.coarse.codes,
                         c.coarse.raw);
  try {
    reference::hierarchy_traverse<float>(
        c.shape, std::span<float>(out), c.stride, /*cubic=*/!c.multigrid,
        [&](std::size_t, double pred, std::size_t level) {
          return (level == 1 || !c.multigrid ? fine : coarse).decode(pred);
        });
  } catch (const CorruptStream&) {
    return std::nullopt;
  }
  return out;
}

/// Kernel decode at a pinned dispatch level; nullopt when rejected.
std::optional<std::vector<float>> kernel_decode(const HierarchyCase& c,
                                            SimdLevel level) {
  ForcedLevel forced(level);
  std::vector<float> out(c.shape.size(), 0.0f);
  QuantDecoder<float> fine(c.eb, c.radius, c.fine.codes, c.fine.raw);
  QuantDecoder<float> coarse(coarse_eb(c), c.radius, c.coarse.codes,
                                  c.coarse.raw);
  try {
    kernels::hierarchy_decode(c.shape, std::span<float>(out), c.stride,
                                 /*cubic=*/!c.multigrid, fine,
                                 c.multigrid ? &coarse : nullptr);
  } catch (const CorruptStream&) {
    return std::nullopt;
  }
  return out;
}

/// Bitwise equality (NaN payloads included).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Both kernel builds agree with the reference: identical arrays, or
/// all three reject the streams. Returns whether the reference decoded.
bool expect_decoders_agree(const HierarchyCase& c, const char* what) {
  const auto want = reference_decode(c);
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const auto got = kernel_decode(c, level);
    EXPECT_EQ(got.has_value(), want.has_value())
        << what << " " << kernels::simd_level_name(level)
        << ": kernel and reference disagree on rejecting the streams";
    if (got.has_value() && want.has_value()) {
      EXPECT_TRUE(same_bits(*got, *want))
          << what << " " << kernels::simd_level_name(level)
          << ": decoded arrays differ";
    }
  }
  return want.has_value();
}

std::vector<Shape> decode_shapes() {
  std::vector<Shape> shapes;
  const std::size_t dims[] = {1, 2, 3, 5, 65};
  for (const std::size_t a : dims) shapes.emplace_back(a);
  for (const std::size_t a : dims) {
    for (const std::size_t b : dims) shapes.emplace_back(a, b);
  }
  for (const auto& [a, b, c] : std::vector<std::array<std::size_t, 3>>{
           {1, 1, 1}, {2, 3, 5}, {5, 2, 3}, {3, 5, 65}, {65, 3, 2},
           {1, 65, 1}, {5, 5, 5}, {2, 1, 65}, {17, 9, 6}}) {
    shapes.emplace_back(a, b, c);
  }
  return shapes;
}

std::vector<float> decode_field(const Shape& shape, std::uint64_t seed) {
  const FloatArray smooth = make_field(shape, seed);
  std::vector<float> v(smooth.values().begin(), smooth.values().end());
  // Non-finite islands exercise the raw sweep (including raw values
  // that then feed later predictions).
  Rng rng(seed + 1);
  for (std::size_t k = 0; k < 1 + v.size() / 40; ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1));
    switch (k % 4) {
      case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v[i] = std::numeric_limits<float>::infinity(); break;
      case 2: v[i] = -std::numeric_limits<float>::infinity(); break;
      default: v[i] = static_cast<float>(1e30); break;
    }
  }
  return v;
}

void sweep_honest_streams() {
  std::uint64_t seed = 500;
  for (const Shape& shape : decode_shapes()) {
    for (const bool multigrid : {false, true}) {
      for (const std::size_t cap : {std::size_t{4}, std::size_t{64}}) {
        // A tiny radius pushes many residuals onto the raw path.
        for (const std::uint32_t radius : {kDefaultQuantRadius, 3u}) {
          const std::vector<float> field = decode_field(shape, ++seed);
          const HierarchyCase c =
              encode_case(shape, field, cap, multigrid, radius);
          EXPECT_TRUE(expect_decoders_agree(c, multigrid ? "multigrid"
                                                         : "sz3-interp"))
              << "honest streams must decode";
        }
      }
    }
  }
}

TEST(Kernels, HierarchyDecodeMatchesReference) { sweep_honest_streams(); }

/// Random codes (0, in-range, and >= 2*radius), a raw section that may
/// run short, and for multigrid a random fine/coarse split.
HierarchyCase hostile_case(const Shape& shape, bool multigrid,
                              Rng& rng) {
  HierarchyCase c;
  c.shape = shape;
  c.stride = choose_anchor_stride(shape, 8);
  c.multigrid = multigrid;
  c.radius = 16;
  const std::size_t n = shape.size();
  std::vector<std::uint32_t> codes(n);
  std::size_t zeros = 0;
  for (auto& code : codes) {
    switch (rng.uniform_int(0, 5)) {
      case 0: code = 0; break;
      case 1:
        code = static_cast<std::uint32_t>(rng.uniform_int(32, 1 << 20));
        break;
      case 2: code = 0xffffffffu; break;
      default: code = static_cast<std::uint32_t>(rng.uniform_int(1, 31)); break;
    }
    zeros += code == 0 ? 1 : 0;
  }
  std::vector<float> raw(static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(zeros))));
  for (auto& r : raw) r = static_cast<float>(rng.normal(0.0, 1e3));
  const std::size_t split =
      multigrid ? static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(n)))
                : n;
  const std::size_t raw_split =
      multigrid ? static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(raw.size())))
                : raw.size();
  const auto at = [](auto& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  c.fine.codes.assign(codes.begin(), at(codes, split));
  c.coarse.codes.assign(at(codes, split), codes.end());
  c.fine.raw.assign(raw.begin(), at(raw, raw_split));
  c.coarse.raw.assign(at(raw, raw_split), raw.end());
  return c;
}

void sweep_hostile_streams() {
  Rng rng(0xdec0de);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 4; ++round) {
    for (const Shape& shape : decode_shapes()) {
      for (const bool multigrid : {false, true}) {
        const HierarchyCase c = hostile_case(shape, multigrid, rng);
        (expect_decoders_agree(c, multigrid ? "hostile multigrid"
                                            : "hostile sz3-interp")
             ? accepted
             : rejected)++;
      }
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Kernels, HierarchyDecodeHostileStreamsMatchOrThrow) {
  sweep_hostile_streams();
}

}  // namespace
}  // namespace ocelot
