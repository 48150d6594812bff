// Chunked streaming compression through pipes (the zero-copy path).
//
// Demonstrates core/stream_codec: a producer emits raw float32 slabs
// into a stream, stream_compress chunks them into OCB1 blocks through
// pooled buffers (the full field is never resident on the compress
// side), and stream_decompress replays the container block by block.
// The same machinery backs the CLI:
//
//   ./build/ocelot generate Miranda density 0.2 field.ocf
//   ./build/ocelot decompress field.ocz -          # raw floats out
//   ... | ./build/ocelot compress - out.ocb slab=128x128 eb=1e-3
//
// Here the pipe is a std::stringstream so the example is
// self-contained and deterministic.
#include <iostream>
#include <sstream>

#include "common/buffer_pool.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/stream_codec.hpp"
#include "datagen/datasets.hpp"

using namespace ocelot;

int main() {
  // A 3-D Miranda field, serialized the way a simulation would write
  // it: raw float32 samples, slowest dimension first.
  const FloatArray field = generate_field("Miranda", "density", 0.2, 7);
  std::stringstream raw;
  raw.write(reinterpret_cast<const char*>(field.values().data()),
            static_cast<std::streamsize>(field.byte_size()));

  std::cout << "=== streaming pipe: " << field.shape().dim(0) << "x"
            << field.shape().dim(1) << "x" << field.shape().dim(2)
            << " Miranda density ("
            << fmt_bytes(static_cast<double>(field.byte_size())) << ") ===\n";

  // Compress: each chunk of 8 slabs becomes one OCB1 block. eb is
  // value-range-relative per chunk; use kAbsolute for a uniform bound.
  StreamCompressConfig config;
  config.compression.backend = "sz3-interp";
  config.compression.eb_mode = EbMode::kAbsolute;
  config.compression.eb = 1e-3;
  config.slab_dims = {field.shape().dim(1), field.shape().dim(2)};
  config.block_slabs = 8;

  std::stringstream compressed;
  const StreamStats c = stream_compress(raw, compressed, config);
  std::cout << "compressed in " << c.blocks << " blocks: "
            << fmt_bytes(static_cast<double>(c.compressed_bytes)) << " ("
            << fmt_double(c.ratio(), 2) << "x)\n";

  // Decompress block by block back into raw floats.
  std::stringstream restored;
  const StreamStats d = stream_decompress(compressed, restored);
  std::cout << "decompressed " << d.blocks << " blocks back to "
            << fmt_bytes(static_cast<double>(d.raw_bytes)) << "\n";

  // Verify the bound end to end.
  std::vector<float> recon(field.size());
  restored.read(reinterpret_cast<char*>(recon.data()),
                static_cast<std::streamsize>(field.byte_size()));
  const double err = max_abs_error<float>(field.values(), recon);
  std::cout << "max |err| = " << err << " (bound " << config.compression.eb
            << ")\n";

  // The pools that carried every chunk: steady-state streaming reuses
  // these buffers instead of allocating per block.
  const auto bytes_stats = ScratchPool<std::uint8_t>::shared().stats();
  const auto float_stats = ScratchPool<float>::shared().stats();
  std::cout << "buffer pool: " << bytes_stats.created << " byte buffers, "
            << bytes_stats.reused << " reuses; float scratch: "
            << float_stats.created << " vectors, " << float_stats.reused
            << " reuses\n";
  return err <= config.compression.eb ? 0 : 1;
}
