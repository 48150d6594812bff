// Quickstart: compress a scientific field with an error bound,
// decompress it, and verify the bound — the core Ocelot contract.
//
//   $ ./quickstart
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "datagen/datasets.hpp"

using namespace ocelot;

int main() {
  // 1. Get a field: a synthetic CESM-like total-precipitable-water
  //    grid (in a real deployment this comes from your NetCDF/HDF5).
  const FloatArray field = generate_field("CESM", "TMQ", 0.12, 2024);
  std::cout << "field: CESM/TMQ, " << field.shape().dim(0) << "x"
            << field.shape().dim(1) << " ("
            << fmt_bytes(static_cast<double>(field.byte_size())) << ")\n\n";

  // 2. Pick a compression setting: the SZ3-style interpolation
  //    backend with a value-range-relative error bound of 1e-3.
  CompressionConfig config;
  config.backend = "sz3-interp";
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;

  // 3. Compress.
  const Bytes blob = compress(field, config);
  const double ratio = static_cast<double>(field.byte_size()) /
                       static_cast<double>(blob.size());
  std::cout << "compressed to " << fmt_bytes(static_cast<double>(blob.size()))
            << "  (ratio " << fmt_double(ratio, 2) << "x)\n";

  // 4. Decompress and verify the error-bound contract.
  const FloatArray recon = decompress(blob);
  const double abs_eb = resolve_abs_eb(field, config);
  const double max_err = max_abs_error<float>(field.values(), recon.values());
  const double quality = psnr<float>(field.values(), recon.values());

  std::cout << "max |error| = " << max_err << "  (bound " << abs_eb << ")  "
            << (max_err <= abs_eb ? "[bound holds]" : "[VIOLATION]") << "\n"
            << "PSNR = " << fmt_double(quality, 2) << " dB"
            << (quality > 50.0 ? "  (no visible difference expected)" : "")
            << "\n\n";

  // 5. Try every backend for comparison (a row added to the backend
  //    table shows up here automatically).
  TextTable table({"backend", "ratio", "compress (ms)", "PSNR (dB)"});
  for (const std::string& backend : registered_backend_names()) {
    CompressionConfig c = config;
    c.backend = backend;
    const RoundTripStats stats = measure_roundtrip(field, c);
    table.add_row({backend, fmt_double(stats.compression_ratio, 2),
                   fmt_double(stats.compress_seconds * 1e3, 2),
                   fmt_double(stats.psnr_db, 2)});
  }
  table.print(std::cout);
  return 0;
}
