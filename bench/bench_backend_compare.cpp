// Cross-backend comparison: every registered compressor backend on
// the same synthetic fields at the same value-range-relative bound —
// ratio, throughput, PSNR, and error-bound compliance per backend.
// The table a user reads before trusting the advisor's pick, and the
// CI gate proving each registered family round-trips under its bound.
//
// The second half pits the online adaptive advisor against every
// fixed backend at the same block granularity on the mixed-field set:
// the adaptive row must match or beat the best single fixed backend's
// aggregate ratio (within 1%) at >= 0.85x its throughput, with the
// error bound intact — the CI gate for the per-block decision loop.
//
// Usage: bench_backend_compare [--smoke]
//   --smoke  tiny fields for the CI bench-smoke job. Both modes emit
//            BENCH_backend_compare.json for tools/check_bench.py.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compressor/backend.hpp"
#include "core/adaptive.hpp"
#include "datagen/datasets.hpp"
#include "exec/parallel_codec.hpp"

using namespace ocelot;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double scale = smoke ? 0.06 : 0.15;
  const double eb = 1e-3;  // value-range-relative

  struct Case {
    const char* app;
    const char* field;
  };
  const Case cases[] = {{"Miranda", "density"}, {"CESM", "TMQ"}};

  bench::BenchReport report("backend_compare");
  TextTable table({"backend", "field", "ratio", "MB/s comp", "MB/s decomp",
                   "PSNR (dB)", "|err|/eb"});

  std::map<std::string, double> worst_ratio_per_backend;
  double max_error_over_eb = 0.0;
  double min_psnr_db = 1e12;

  for (const Case& c : cases) {
    const FloatArray data = generate_field(c.app, c.field, scale, 77);
    const double mb = static_cast<double>(data.byte_size()) / 1e6;
    for (const BackendEntry& backend : backends()) {
      CompressionConfig config;
      config.backend = backend.name;
      config.eb_mode = EbMode::kValueRangeRel;
      config.eb = eb;
      const RoundTripStats stats = measure_roundtrip(data, config);

      const double err_over_eb =
          stats.abs_eb > 0.0 ? stats.max_error / stats.abs_eb : 0.0;
      max_error_over_eb = std::max(max_error_over_eb, err_over_eb);
      min_psnr_db = std::min(min_psnr_db, stats.psnr_db);
      const auto it = worst_ratio_per_backend.find(backend.name);
      if (it == worst_ratio_per_backend.end() ||
          stats.compression_ratio < it->second) {
        worst_ratio_per_backend[backend.name] = stats.compression_ratio;
      }

      const std::string label =
          backend.name + "/" + c.app + "/" + c.field;
      const double comp_mbs =
          stats.compress_seconds > 0.0 ? mb / stats.compress_seconds : 0.0;
      const double decomp_mbs =
          stats.decompress_seconds > 0.0 ? mb / stats.decompress_seconds : 0.0;
      table.add_row({backend.name, std::string(c.app) + "/" + c.field,
                     fmt_double(stats.compression_ratio, 2),
                     fmt_double(comp_mbs, 1), fmt_double(decomp_mbs, 1),
                     fmt_double(stats.psnr_db, 1),
                     fmt_double(err_over_eb, 3)});
      report.add_row(label,
                     {{"ratio", stats.compression_ratio},
                      {"compress_mb_s", comp_mbs},
                      {"decompress_mb_s", decomp_mbs},
                      {"psnr_db", stats.psnr_db},
                      {"max_error_over_eb", err_over_eb},
                      {"compressed_bytes",
                       static_cast<double>(stats.compressed_bytes)}});
    }
  }

  std::cout << "=== backends on synthetic fields, rel eb " << eb
            << " (scale " << scale << ") ===\n\n";
  table.print(std::cout);

  // --- Online adaptive advisor vs fixed backends, mixed-field set ---
  // Same executor, same block granularity, one policy instance across
  // both fields (the campaign-learning path). Walls are min-of-reps so
  // the smoke-scale throughput gate does not ride on scheduler noise.
  // Larger fields than the per-backend table: the advisor's per-field
  // calibration probe is a fixed cost, and at tiny smoke sizes it
  // would swamp the per-byte throughput signal the gate is after.
  const double mixed_scale = std::min(scale * 3.0, 0.3);
  std::vector<FloatArray> mixed;
  double mixed_raw_bytes = 0.0;
  std::size_t min_dim0 = static_cast<std::size_t>(-1);
  for (const Case& c : cases) {
    mixed.push_back(generate_field(c.app, c.field, mixed_scale, 77));
    mixed_raw_bytes += static_cast<double>(mixed.back().byte_size());
    min_dim0 = std::min(min_dim0, mixed.back().shape().dim(0));
  }
  const double mixed_mb = mixed_raw_bytes / 1e6;
  // ~6 blocks even on the smallest smoke field, so the advisor has
  // blocks left to exploit what the calibration probe learned.
  const std::size_t block_slabs = std::max<std::size_t>(1, min_dim0 / 6);
  // Min-of-reps wall clocks: more reps in smoke mode because the CI
  // throughput gate (0.85x) rides on these tiny walls and shared
  // runners hiccup; the fields are small enough that extra reps are
  // nearly free.
  const int reps = smoke ? 5 : 2;

  CompressionConfig blocked_config;
  blocked_config.eb_mode = EbMode::kValueRangeRel;
  blocked_config.eb = eb;

  TextTable mixed_table(
      {"policy", "ratio", "MB/s comp", "blocks", "backend mix"});
  double best_fixed_ratio = 0.0;
  double best_fixed_mbs = 0.0;
  std::string best_fixed_name;
  for (const BackendEntry& backend : backends()) {
    blocked_config.backend = backend.name;
    double ratio = 0.0;
    double wall = 1e12;
    std::size_t blocks = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const ParallelCompressResult r =
          parallel_compress(mixed, blocked_config, 1, block_slabs);
      ratio = r.ratio();
      wall = std::min(wall, r.wall_seconds);
      blocks = r.task_count;
    }
    const double mbs = wall > 0.0 ? mixed_mb / wall : 0.0;
    mixed_table.add_row({"fixed/" + backend.name, fmt_double(ratio, 2),
                         fmt_double(mbs, 1), std::to_string(blocks), "-"});
    report.add_row("blocked/" + backend.name,
                   {{"ratio", ratio}, {"compress_mb_s", mbs}});
    if (ratio > best_fixed_ratio) {
      best_fixed_ratio = ratio;
      best_fixed_mbs = mbs;
      best_fixed_name = backend.name;
    }
  }

  blocked_config.backend = "sz3-interp";  // base tunables only
  double adaptive_ratio = 0.0;
  double adaptive_wall = 1e12;
  std::vector<Bytes> adaptive_blobs;
  AdaptiveSummary adaptive_summary;
  for (int rep = 0; rep < reps; ++rep) {
    AdvisorPolicy policy;  // fresh policy: every rep is a cold run
    ParallelCompressResult r =
        parallel_compress(mixed, blocked_config, 1, block_slabs, &policy);
    adaptive_ratio = r.ratio();
    adaptive_wall = std::min(adaptive_wall, r.wall_seconds);
    adaptive_blobs = std::move(r.blobs);
    adaptive_summary = policy.summary();
  }
  const double adaptive_mbs =
      adaptive_wall > 0.0 ? mixed_mb / adaptive_wall : 0.0;

  // Bound compliance of the adaptive containers.
  const ParallelDecompressResult decoded =
      parallel_decompress(adaptive_blobs, 1);
  double adaptive_err_over_eb = 0.0;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    CompressionConfig field_config = blocked_config;
    const double abs_eb = resolve_abs_eb(mixed[i], field_config);
    adaptive_err_over_eb = std::max(
        adaptive_err_over_eb,
        max_abs_error<float>(mixed[i].values(), decoded.fields[i].values()) /
            abs_eb);
  }
  max_error_over_eb = std::max(max_error_over_eb, adaptive_err_over_eb);

  mixed_table.add_row({"adaptive", fmt_double(adaptive_ratio, 2),
                       fmt_double(adaptive_mbs, 1),
                       std::to_string(adaptive_summary.blocks),
                       to_string(adaptive_summary)});
  report.add_row("adaptive/mixed",
                 {{"ratio", adaptive_ratio},
                  {"compress_mb_s", adaptive_mbs},
                  {"max_error_over_eb", adaptive_err_over_eb},
                  {"blocks", static_cast<double>(adaptive_summary.blocks)}});

  std::cout << "\n=== adaptive advisor vs fixed backends (mixed fields, "
            << "block_slabs " << block_slabs << ") ===\n\n";
  mixed_table.print(std::cout);
  std::cout << "\nbest fixed: " << best_fixed_name << " at "
            << fmt_double(best_fixed_ratio, 2) << "x; adaptive "
            << fmt_double(adaptive_ratio, 2) << "x ("
            << fmt_double(adaptive_ratio / best_fixed_ratio, 3)
            << "x of best fixed, throughput "
            << fmt_double(adaptive_mbs / best_fixed_mbs, 2) << "x)\n";

  // Gate metrics: every backend's worst-case ratio must clear the
  // floor, every round trip must respect its bound, and all
  // registered families must have been exercised.
  double worst_ratio = 1e12;
  for (const auto& [name, ratio] : worst_ratio_per_backend) {
    report.set_metric("ratio_" + name, ratio);
    worst_ratio = std::min(worst_ratio, ratio);
  }
  report.set_metric("ratio", worst_ratio);
  report.set_metric("psnr_db", min_psnr_db);
  report.set_metric("max_error_over_eb", max_error_over_eb);
  report.set_metric("backends", static_cast<double>(backends().size()));
  report.set_metric("best_fixed_ratio", best_fixed_ratio);
  report.set_metric("adaptive_ratio", adaptive_ratio);
  report.set_metric("adaptive_vs_best_fixed",
                    best_fixed_ratio > 0.0 ? adaptive_ratio / best_fixed_ratio
                                           : 0.0);
  report.set_metric("adaptive_throughput_vs_fixed",
                    best_fixed_mbs > 0.0 ? adaptive_mbs / best_fixed_mbs
                                         : 0.0);
  report.set_metric("adaptive_blocks",
                    static_cast<double>(adaptive_summary.blocks));

  std::cout << "\nworst ratio across backends "
            << fmt_double(worst_ratio, 2) << "x, min PSNR "
            << fmt_double(min_psnr_db, 1) << " dB, max |err|/eb "
            << fmt_double(max_error_over_eb, 3) << " (must be <= 1)\n";
  const std::string path = report.write();
  std::cout << "wrote " << path << "\n";
  return 0;
}
