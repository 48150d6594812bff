// Micro-benchmarks (google-benchmark): codec and compressor
// throughput per stage, supporting the cost-model calibration.
#include <benchmark/benchmark.h>

#include "codec/huffman.hpp"
#include "codec/lzb.hpp"
#include "common/rng.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "datagen/datasets.hpp"

namespace {

using namespace ocelot;

std::vector<std::uint32_t> skewed_symbols(std::size_t n, double p_zero) {
  Rng rng(17);
  std::vector<std::uint32_t> syms;
  syms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    syms.push_back(rng.chance(p_zero)
                       ? 32768u
                       : static_cast<std::uint32_t>(
                             rng.uniform_int(32700, 32840)));
  }
  return syms;
}

void BM_HuffmanEncode(benchmark::State& state) {
  const auto syms = skewed_symbols(
      static_cast<std::size_t>(state.range(0)), 0.9);
  Bytes out;
  for (auto _ : state) {
    out.clear();
    ByteSink sink(out);
    huffman_encode(syms, sink);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(syms.size()));
}
BENCHMARK(BM_HuffmanEncode)->Arg(1 << 14)->Arg(1 << 18);

/// The shape of one ocelotd request's code stream: daemon-small's
/// 12x19x19 field is 4,332 codes over ~300 distinct values, so the
/// per-call cost (histogram, code build, table) shows next to the
/// per-symbol cost.
void BM_HuffmanEncodeSmallField(benchmark::State& state) {
  Rng rng(29);
  std::vector<std::uint32_t> syms(12 * 19 * 19);
  for (auto& s : syms) {
    s = rng.chance(0.5) ? 32768u
                        : static_cast<std::uint32_t>(
                              rng.uniform_int(32768 - 150, 32768 + 150));
  }
  Bytes out;
  for (auto _ : state) {
    out.clear();
    ByteSink sink(out);
    huffman_encode(syms, sink);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["distinct"] =
      static_cast<double>(histogram_symbols(syms).size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(syms.size()));
}
BENCHMARK(BM_HuffmanEncodeSmallField);

/// The code builder alone on 1,000 distinct symbols with counts 1-16:
/// its cost grows with the alphabet, not with the stream.
void BM_HuffmanBuildCode(benchmark::State& state) {
  Rng rng(31);
  SymbolHist hist;
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(state.range(0));
       ++s) {
    hist.emplace_back(32000 + s,
                      static_cast<std::uint64_t>(rng.uniform_int(1, 16)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HuffmanCode::from_histogram(hist));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(hist.size()));
}
BENCHMARK(BM_HuffmanBuildCode)->Arg(1000);

void BM_HuffmanDecode(benchmark::State& state) {
  const auto syms = skewed_symbols(
      static_cast<std::size_t>(state.range(0)), 0.9);
  Bytes encoded;
  {
    ByteSink sink(encoded);
    huffman_encode(syms, sink);
  }
  std::vector<std::uint32_t> decoded;
  for (auto _ : state) {
    huffman_decode_into(encoded, syms.size(), decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(syms.size()));
}
BENCHMARK(BM_HuffmanDecode)->Arg(1 << 14)->Arg(1 << 18);

void BM_LzbCompress(benchmark::State& state) {
  Rng rng(23);
  Bytes input;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    input.push_back(rng.chance(0.85)
                        ? 0
                        : static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  Bytes out;
  for (auto _ : state) {
    out.clear();
    ByteSink sink(out);
    lzb_compress(input, sink);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LzbCompress)->Arg(1 << 16)->Arg(1 << 20);

void BM_PipelineCompress(benchmark::State& state) {
  const FloatArray data =
      generate_field("Miranda", "density", 0.08, 31);
  CompressionConfig config;
  config.backend =
      backend_by_id(static_cast<std::uint8_t>(state.range(0))).name;
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress(data, config));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.byte_size()));
  state.SetLabel(config.backend);
}
BENCHMARK(BM_PipelineCompress)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_PipelineDecompress(benchmark::State& state) {
  const FloatArray data =
      generate_field("Miranda", "density", 0.08, 31);
  CompressionConfig config;
  config.backend =
      backend_by_id(static_cast<std::uint8_t>(state.range(0))).name;
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;
  const Bytes blob = compress(data, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompress<float>(blob));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.byte_size()));
  state.SetLabel(config.backend);
}
BENCHMARK(BM_PipelineDecompress)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
