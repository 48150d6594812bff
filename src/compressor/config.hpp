#pragma once
// Compression configuration.
//
// Mirrors the paper's "config-based features": the user-facing knobs
// are the error bound (absolute or value-range-relative), the
// compressor backend and the entropy stage, both named by their rows
// in fixed tables (backend.hpp, codec/entropy.hpp). The codec's
// numeric parameters are constants: every encoder writes them into the
// OCZ header's parameter block, and decoders use the header's values.

#include <cstddef>
#include <cstdint>
#include <string>

#include "codec/lossless.hpp"

namespace ocelot {

/// Quantizer capacity / 2: 2*radius bins (16-bit style, like SZ).
inline constexpr std::uint32_t kDefaultQuantRadius = 32768;
/// Anchor-stride cap of the sz3-interp and multigrid hierarchies.
inline constexpr std::size_t kMaxAnchorStride = 64;
/// Edge of SZ2's regression blocks.
inline constexpr std::size_t kSz2BlockSize = 6;

/// How the error bound is interpreted.
enum class EbMode : std::uint8_t {
  kAbsolute = 0,       ///< bound on |orig - recon| directly
  kValueRangeRel = 1,  ///< bound = eb * (max - min) of the input
};

/// User-specified compression settings.
struct CompressionConfig {
  std::string backend = "sz3-interp";  ///< backend table name
  EbMode eb_mode = EbMode::kAbsolute;
  double eb = 1e-3;
  /// Entropy-stage name for quantized-code sections. The default
  /// ("huffman") keeps the legacy Huffman+lossless chain and the exact
  /// pre-table wire bytes; any other stage switches the blob header
  /// to the OCZ2 variant that records the stage id.
  std::string entropy = "huffman";
  LosslessBackend lossless = LosslessBackend::kLzb;

  [[nodiscard]] std::string label() const {
    return backend + "/eb=" + std::to_string(eb);
  }
};

}  // namespace ocelot
