// Cross-stage comparison: every entropy stage over the
// same backend and fields at the same value-range-relative bound —
// ratio, throughput, and error-bound compliance per stage. This is
// the table behind the ans stage's headline claim (ANS matches or
// beats the legacy Huffman chain on the smoke set) and the CI gate
// holding it: every per-field row carries ans_ratio_vs_huffman, and
// the top-level metric is the worst of them, both floored at 1.0.
//
// Usage: bench_entropy_compare [--smoke]
//   --smoke  tiny fields for the CI bench-smoke job. Both modes emit
//            BENCH_entropy_compare.json for tools/check_bench.py
//            (ratio_<stage> metrics feed the --baseline trend gate).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/entropy.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "datagen/datasets.hpp"

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

  bench::BenchReport report("entropy_compare");
  TextTable table({"stage", "field", "ratio", "MB/s comp", "MB/s decomp",
                   "|err|/eb"});

  const auto stages = entropy_stages();
  // Worst-over-fields aggregates per stage, keyed by stage list index.
  std::vector<double> worst_ratio(stages.size(), 1e12);
  double max_error_over_eb = 0.0;
  double worst_ans_vs_huffman = 1e12;

  for (const Case& c : cases) {
    const FloatArray data = generate_field(c.app, c.field, scale, 77);
    const double mb = static_cast<double>(data.byte_size()) / 1e6;
    std::vector<std::pair<std::string, double>> row;
    double huffman_ratio = 0.0;
    double ans_ratio = 0.0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      CompressionConfig config;
      config.eb_mode = EbMode::kValueRangeRel;
      config.eb = eb;
      config.entropy = stages[s]->name;
      const RoundTripStats stats = measure_roundtrip(data, config);

      const double err_over_eb =
          stats.abs_eb > 0.0 ? stats.max_error / stats.abs_eb : 0.0;
      max_error_over_eb = std::max(max_error_over_eb, err_over_eb);
      worst_ratio[s] = std::min(worst_ratio[s], stats.compression_ratio);
      if (stages[s]->name == "huffman")
        huffman_ratio = stats.compression_ratio;
      if (stages[s]->name == "ans") ans_ratio = stats.compression_ratio;

      const double comp_mbs =
          stats.compress_seconds > 0.0 ? mb / stats.compress_seconds : 0.0;
      const double decomp_mbs =
          stats.decompress_seconds > 0.0 ? mb / stats.decompress_seconds
                                         : 0.0;
      table.add_row({stages[s]->name,
                     std::string(c.app) + "/" + c.field,
                     fmt_double(stats.compression_ratio, 2),
                     fmt_double(comp_mbs, 1), fmt_double(decomp_mbs, 1),
                     fmt_double(err_over_eb, 3)});
      const std::string key = stages[s]->name;
      row.emplace_back("ratio_" + key, stats.compression_ratio);
      row.emplace_back("compress_mb_s_" + key, comp_mbs);
      row.emplace_back("decompress_mb_s_" + key, decomp_mbs);
      row.emplace_back("max_error_over_eb_" + key, err_over_eb);
    }
    if (huffman_ratio > 0.0 && ans_ratio > 0.0) {
      const double vs = ans_ratio / huffman_ratio;
      row.emplace_back("ans_ratio_vs_huffman", vs);
      worst_ans_vs_huffman = std::min(worst_ans_vs_huffman, vs);
    }
    report.add_row(std::string(c.app) + "/" + c.field, row);
  }

  for (std::size_t s = 0; s < stages.size(); ++s) {
    report.set_metric("ratio_" + stages[s]->name, worst_ratio[s]);
  }
  report.set_metric("ans_ratio_vs_huffman", worst_ans_vs_huffman);
  report.set_metric("max_error_over_eb", max_error_over_eb);

  std::cout << "=== registered entropy stages (backend sz3-interp, rel eb "
            << eb << ", scale " << scale << ") ===\n\n";
  table.print(std::cout);
  std::cout << "\nworst-case ans ratio vs huffman: "
            << fmt_double(worst_ans_vs_huffman, 4) << "x\n";
  std::cout << "\nwrote " << report.write() << "\n";
  return 0;
}
