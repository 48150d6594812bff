// Zero-copy streaming data path: throughput and allocation profile.
//
// The block-parallel executor compresses slab blocks into pooled
// buffers and hands them to build_block_container as views (one copy
// per payload), so steady-state traffic should allocate almost
// nothing per block. This bench measures that directly with the
// global allocation counters (bench_common): a warmed-up block_compress
// sweep per worker count (rows carry allocs_per_block / allocs_per_mb,
// gated in CI), plus a "legacy_buffered" baseline that rebuilds the
// pre-streaming data path — fresh vectors per block, buffered section
// assembly, per-block Bytes payloads — for an apples-to-apples
// alloc/throughput comparison on identical container bytes. A
// "decompress_w1" row times block_decompress of the same container at
// one worker (decompress_mb_s_w1, gated in CI) and checks that 2 and 4
// workers decode the identical field.
//
// Usage: bench_stream_throughput [--smoke]
//   --smoke  tiny field + short sweep for the CI gate. Both modes emit
//            BENCH_stream_throughput.json.
#include <algorithm>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "datagen/datasets.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"

using namespace ocelot;

namespace {

/// The pre-streaming executor, reconstructed as a baseline: one fresh
/// slice vector and one fresh Bytes blob per block, containers built
/// from a vector of per-block payloads. Bytes are identical to
/// block_compress; only the allocation discipline differs.
Bytes legacy_buffered_compress(const FloatArray& field,
                               const CompressionConfig& config,
                               std::size_t block_slabs) {
  CompressionConfig abs_config = config;
  abs_config.eb_mode = EbMode::kAbsolute;
  abs_config.eb = resolve_abs_eb(field, config);
  const std::size_t slab_elems =
      field.shape().dim(1) * field.shape().dim(2);
  std::vector<Bytes> payloads;
  for (const BlockSpan& span :
       plan_blocks(field.shape().dim(0), block_slabs)) {
    const Shape shape = block_shape(field.shape(), span);
    std::vector<float> data(
        field.values().begin() +
            static_cast<std::ptrdiff_t>(span.slab_begin * slab_elems),
        field.values().begin() +
            static_cast<std::ptrdiff_t>(span.slab_begin * slab_elems +
                                        shape.size()));
    payloads.push_back(compress(FloatArray(shape, std::move(data)),
                                abs_config));
  }
  return build_block_container(field.shape(), block_slabs,
                               {payloads.begin(), payloads.end()});
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double scale = smoke ? 0.12 : 0.35;
  const int reps = smoke ? 2 : 4;
  const std::vector<std::size_t> worker_sweep =
      smoke ? std::vector<std::size_t>{1, 2, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};

  const FloatArray field = generate_field("Miranda", "density", scale, 17);
  const Shape& shape = field.shape();
  const std::size_t block_slabs = std::max<std::size_t>(1, shape.dim(0) / 16);
  const double raw_mb = static_cast<double>(field.byte_size()) / 1e6;

  CompressionConfig config;
  config.backend = "sz3-interp";
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;

  std::cout << "=== streaming data path: Miranda density " << shape.dim(0)
            << "x" << shape.dim(1) << "x" << shape.dim(2) << " ("
            << fmt_bytes(static_cast<double>(field.byte_size()))
            << "), block=" << block_slabs << " slabs ===\n\n";

  bench::BenchReport report("stream_throughput");

  // Warm the pools and the page cache so the sweep sees steady state —
  // exactly the regime the executor runs in after its first batch.
  BlockCompressResult warm = block_compress(field, config, 2, block_slabs);
  const std::size_t n_blocks = warm.n_blocks;

  TextTable table({"path", "workers", "compress (ms)", "MB/s",
                   "allocs/block", "allocs/MB", "peak scratch"});
  double stream_allocs_per_mb = 0.0;
  double stream_w1_mb_per_s = 0.0;
  double best_mb_per_s = 0.0;
  BlockCompressResult last;
  for (const std::size_t workers : worker_sweep) {
    // Untimed warm rep at this worker count: pools, arenas, and worker
    // scratch reach steady state before the counters start, so every
    // row (stream and legacy alike) reports the same thing — transient
    // growth above a warm baseline — instead of charging whichever row
    // runs first for one-time pool growth.
    (void)block_compress(field, config, workers, block_slabs);
    bench::reset_alloc_peak();
    // OCELOT_ALLOC_TRACE=1: backtrace every counted allocation in the
    // single-worker timed region (attribution for the allocs/block gate).
    const bool trace =
        workers == 1 && std::getenv("OCELOT_ALLOC_TRACE") != nullptr;
    bench::set_alloc_trace(trace);
    const bench::AllocCounters before = bench::alloc_counters();
    double wall = 0.0;
    for (int r = 0; r < reps; ++r) {
      last = block_compress(field, config, workers, block_slabs);
      wall += last.wall_seconds;
    }
    const bench::AllocCounters after = bench::alloc_counters();
    bench::set_alloc_trace(false);

    const double allocs = static_cast<double>(after.allocs - before.allocs);
    const double blocks = static_cast<double>(n_blocks * reps);
    const double allocs_per_block = allocs / blocks;
    const double allocs_per_mb = allocs / (raw_mb * reps);
    const double mb_per_s = wall > 0.0 ? raw_mb * reps / wall : 0.0;
    const double peak_mb =
        static_cast<double>(after.peak_bytes - before.current_bytes) / 1e6;
    best_mb_per_s = std::max(best_mb_per_s, mb_per_s);
    if (workers == 1) {
      stream_allocs_per_mb = allocs_per_mb;
      stream_w1_mb_per_s = mb_per_s;
    }

    table.add_row({"stream", std::to_string(workers),
                   fmt_double(wall / reps * 1e3, 1), fmt_double(mb_per_s, 1),
                   fmt_double(allocs_per_block, 1),
                   fmt_double(allocs_per_mb, 0), fmt_bytes(peak_mb * 1e6)});
    report.add_row("stream_w" + std::to_string(workers),
                   {{"workers", static_cast<double>(workers)},
                    {"compress_seconds", wall / reps},
                    {"mb_per_s", mb_per_s},
                    {"allocs_per_block", allocs_per_block},
                    {"allocs_per_mb", allocs_per_mb},
                    {"peak_scratch_mb", peak_mb}});
  }

  // Legacy baseline: fresh buffers everywhere (the pre-streaming data
  // path), single-threaded like the stream w=1 row.
  Bytes legacy;
  {
    // Same warm-then-measure discipline as the stream rows.
    legacy = legacy_buffered_compress(field, config, block_slabs);
    bench::reset_alloc_peak();
    const bench::AllocCounters before = bench::alloc_counters();
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      legacy = legacy_buffered_compress(field, config, block_slabs);
    }
    const double wall = timer.seconds();
    const bench::AllocCounters after = bench::alloc_counters();
    const double allocs = static_cast<double>(after.allocs - before.allocs);
    const double mb_per_s = wall > 0.0 ? raw_mb * reps / wall : 0.0;
    const double allocs_per_mb = allocs / (raw_mb * reps);
    const double peak_mb =
        static_cast<double>(after.peak_bytes - before.current_bytes) / 1e6;
    table.add_row({"legacy", "1", fmt_double(wall / reps * 1e3, 1),
                   fmt_double(mb_per_s, 1),
                   fmt_double(allocs / (n_blocks * reps), 1),
                   fmt_double(allocs_per_mb, 0), fmt_bytes(peak_mb * 1e6)});
    report.add_row("legacy_buffered",
                   {{"workers", 1.0},
                    {"compress_seconds", wall / reps},
                    {"mb_per_s", mb_per_s},
                    {"legacy_allocs_per_block", allocs / (n_blocks * reps)},
                    {"legacy_allocs_per_mb", allocs_per_mb},
                    {"peak_scratch_mb", peak_mb}});
    report.set_metric("allocs_per_mb_legacy", allocs_per_mb);
    report.set_metric("alloc_reduction",
                      stream_allocs_per_mb > 0.0
                          ? allocs_per_mb / stream_allocs_per_mb
                          : 0.0);
    // Self-contained no-regression gate: the streaming path must not
    // be slower than the buffered baseline it replaced. Compared at
    // one worker on both sides so multi-core parallelism cannot mask
    // a single-thread regression.
    report.set_metric("throughput_vs_legacy",
                      mb_per_s > 0.0 ? stream_w1_mb_per_s / mb_per_s : 0.0);
  }

  // Decompress at one worker on the same container, with the compress
  // rows' discipline: an untimed warm rep, then `reps` timed ones.
  (void)block_decompress(last.container, 1);
  BlockDecompressResult decoded;
  double decode_wall = 0.0;
  for (int r = 0; r < reps; ++r) {
    decoded = block_decompress(last.container, 1);
    decode_wall += decoded.wall_seconds;
  }
  const double decompress_mb_per_s =
      decode_wall > 0.0 ? raw_mb * reps / decode_wall : 0.0;
  table.add_row({"decompress", "1", fmt_double(decode_wall / reps * 1e3, 1),
                 fmt_double(decompress_mb_per_s, 1), "-", "-", "-"});
  report.add_row("decompress_w1", {{"workers", 1.0},
                                   {"decompress_seconds", decode_wall / reps},
                                   {"mb_per_s", decompress_mb_per_s}});
  report.set_metric("decompress_mb_s_w1", decompress_mb_per_s);
  table.print(std::cout);

  // Wire-format invariant: the streaming path and the legacy path must
  // produce byte-identical containers.
  if (last.container != legacy) {
    std::cerr << "FATAL: streaming container differs from buffered bytes\n";
    return 1;
  }
  // Decode invariant: the worker count never changes the field.
  for (const std::size_t workers : {2u, 4u}) {
    const BlockDecompressResult other =
        block_decompress(last.container, workers);
    if (!(other.field.shape() == decoded.field.shape()) ||
        std::memcmp(other.field.values().data(),
                    decoded.field.values().data(),
                    decoded.field.byte_size()) != 0) {
      std::cerr << "FATAL: decoding at " << workers
                << " workers differs from 1 worker\n";
      return 1;
    }
  }

  // Round-trip quality for the gate.
  const double abs_eb = resolve_abs_eb(field, config);
  const double err =
      max_abs_error<float>(field.values(), decoded.field.values());
  std::cout << "\n" << n_blocks << " blocks; containers byte-identical; "
            << "max|err|/eb = " << fmt_double(err / abs_eb, 3)
            << " (must be <= 1)\n";

  report.set_metric("ratio", last.ratio());
  report.set_metric("throughput_mb_s", best_mb_per_s);
  report.set_metric("allocs_per_mb_stream", stream_allocs_per_mb);
  report.set_metric("max_error_over_eb", err / abs_eb);
  report.set_metric("n_blocks", static_cast<double>(n_blocks));
  report.set_metric("psnr_db",
                    psnr<float>(field.values(), decoded.field.values()));

  const std::string path = report.write();
  std::cout << "wrote " << path << "\n";
  return 0;
}
