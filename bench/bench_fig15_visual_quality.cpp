// Regenerates Fig. 15: visual comparison of original vs compressed
// CESM fields (CLDMED, TMQ, TROP_Z). The paper's verdict: above
// ~50 dB PSNR there is no visible difference. We render coarse ASCII
// heatmaps of both versions and report PSNR per field.
#include <iostream>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "compressor/compressor.hpp"
#include "datagen/datasets.hpp"

using namespace ocelot;

namespace {

/// Coarse ASCII heatmap (rows x cols characters) of a 2-D field.
std::string ascii_heatmap(const FloatArray& f, std::size_t rows,
                          std::size_t cols) {
  static const char* kShades = " .:-=+*#%@";
  const ValueSummary s = summarize(f.values());
  const double range = s.range > 0 ? s.range : 1.0;
  std::string out;
  const std::size_t n0 = f.shape().dim(0);
  const std::size_t n1 = f.shape().dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * n0 / rows;
      const std::size_t j = c * n1 / cols;
      const double v = (static_cast<double>(f.at(i, j)) - s.min) / range;
      const int shade = std::min(9, static_cast<int>(v * 10.0));
      out.push_back(kShades[shade]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Fig. 15: original vs compressed visualization (CESM) "
               "===\n\n";

  struct Case {
    const char* field;
    double eb;
  };
  // Bounds chosen per field to land in distinct PSNR regimes, like the
  // paper's 59.64 / 96.80 / 146.05 dB examples.
  const Case cases[] = {{"CLDMED", 3e-2}, {"TMQ", 1e-3}, {"TROP_Z", 1e-5}};

  TextTable summary({"field", "eb", "PSNR (dB)", "verdict"});
  for (const Case& c : cases) {
    const FloatArray original = generate_field("CESM", c.field, 0.08, 42);
    CompressionConfig config;
    config.backend = "sz3-interp";
    config.eb_mode = EbMode::kValueRangeRel;
    config.eb = c.eb;
    const Bytes blob = compress(original, config);
    const FloatArray recon = decompress(blob);
    const double quality = psnr<float>(original.values(), recon.values());

    std::cout << "--- " << c.field << " (PSNR "
              << fmt_double(quality, 2) << " dB) ---\n";
    std::cout << "original:\n" << ascii_heatmap(original, 12, 48);
    std::cout << "compressed:\n" << ascii_heatmap(recon, 12, 48) << "\n";

    summary.add_row({c.field, fmt_double(c.eb, 5), fmt_double(quality, 2),
                     quality > 50.0 ? "no visible difference"
                                    : "visible artifacts possible"});
  }
  summary.print(std::cout);
  std::cout << "\nShape check (paper): fields above ~50 dB render "
               "identically at visualization resolution.\n";
  return 0;
}
