#pragma once
// Pluggable entropy-stage registry.
//
// The quantized-code streams every compressor backend produces go
// through this seam, the same way backend.hpp opened the predictor
// layer: an EntropyStage is resolved by name (when writing, from
// CompressionConfig::entropy) or by the wire id stored in a packed
// section's leading byte (when reading), and the stage owns the
// encode/decode of the section payload.
//
// Wire format of a packed codes section:
//
//   [u8 id][payload...]
//
//   id 0-2  legacy Huffman+lossless chain. The byte doubles as the
//           LosslessBackend id (0 none, 1 lzb, 2 rle+lzb) so blobs
//           written before the registry existed parse bit-exactly —
//           and the default path still emits these exact bytes.
//   id 3    "ans"; the stage decodes the payload.
//   id 4-5  retired: the removed "bwt-mtf" and "lzw" stages. Decoding
//           either throws CorruptStream naming the stage, and the
//           registry refuses to hand the ids out again, so an old
//           section never decodes as some later stage.
//
// Because ids 1 and 2 are spoken for by the legacy chain, the registry
// refuses to register them; "huffman" itself is stage 0.
//
// Stages follow the zero-copy rules: encode appends into a ByteSink
// (no intermediate vectors on the caller's side), decode consumes a
// span.
//
// Adding a stage = implement EntropyStage, pick a fresh wire id >= 6,
// and register it in the EntropyRegistry constructor (entropy.cpp).
// See CONTRIBUTING.md for the full recipe.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/lossless.hpp"
#include "common/bytes.hpp"

namespace ocelot {

/// Wire ids of the built-in stages. 1 and 2 are reserved: on the wire
/// they alias the legacy chain's LosslessBackend byte (see above).
inline constexpr std::uint8_t kEntropyHuffmanId = 0;
inline constexpr std::uint8_t kMaxLegacyEntropyId = 2;
inline constexpr std::uint8_t kEntropyAnsId = 3;
/// Ids of removed stages, reserved forever (see above).
inline constexpr std::uint8_t kRetiredBwtMtfId = 4;
inline constexpr std::uint8_t kRetiredLzwId = 5;

/// One entropy coder family: turns a quantized-code stream into a
/// compressed section payload and back. The payload excludes the
/// leading stage-id byte — the dispatch helpers below own that byte.
class EntropyStage {
 public:
  virtual ~EntropyStage() = default;

  /// Registry key (stable, lowercase, e.g. "ans").
  [[nodiscard]] virtual std::string name() const = 0;
  /// Wire id written as a packed section's leading byte. Ids 0-2 are
  /// the legacy chain and must never be reassigned.
  [[nodiscard]] virtual std::uint8_t wire_id() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;

  /// Encodes a u32 symbol stream into `out`.
  virtual void encode_into(std::span<const std::uint32_t> codes,
                           ByteSink& out) const = 0;
  /// Decodes a payload written by encode_into into `out`. Throws
  /// CorruptStream on malformed input.
  virtual void decode_into(std::span<const std::uint8_t> payload,
                           std::vector<std::uint32_t>& out) const = 0;
};

/// Encodes `codes` as a self-describing packed section: the stage-id
/// byte, then the stage payload. `hist` must be the exact
/// symbol-sorted histogram of `codes` (FusedQuant::hist_view, or
/// histogram_symbols); the huffman stage codes from it instead of
/// counting again, other stages ignore it. The huffman stage writes
/// the Huffman+`lossless` chain, whose leading byte IS the lossless
/// backend id, so default-path blobs stay bit-identical.
void entropy_encode_codes(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    const EntropyStage& stage, LosslessBackend lossless, ByteSink& out);

/// Decodes a packed codes section, dispatching on the leading byte.
/// Throws CorruptStream for empty sections and unknown or retired
/// stage ids.
void entropy_decode_codes_into(std::span<const std::uint8_t> packed,
                               std::vector<std::uint32_t>& out);

/// Process-wide entropy-stage registry, keyed by name and by wire id.
/// The built-in stages are registered on first access; add() registers
/// more. Mirrors BackendRegistry (backend.hpp) member for member.
class EntropyRegistry {
 public:
  static EntropyRegistry& instance();

  /// Registers a stage. Throws InvalidArgument on a name/wire-id clash,
  /// a reserved legacy id (1, 2) or a retired id (4, 5). Returns the
  /// registered stage.
  const EntropyStage& add(std::unique_ptr<EntropyStage> stage);

  /// Lookup for writers: throws InvalidArgument (listing the
  /// registered names) when `name` is unknown.
  [[nodiscard]] const EntropyStage& by_name(const std::string& name) const;

  /// Lookup for readers: throws CorruptStream when the wire id is
  /// unknown (a foreign or corrupt section) or retired (naming the
  /// removed stage).
  [[nodiscard]] const EntropyStage& by_id(std::uint8_t id) const;

  /// Nullptr instead of throwing.
  [[nodiscard]] const EntropyStage* find(const std::string& name) const;

  /// Nullptr instead of throwing (foreign, corrupt or retired ids).
  [[nodiscard]] const EntropyStage* find_by_id(std::uint8_t id) const;

  /// All registered stages in wire-id order.
  [[nodiscard]] std::vector<const EntropyStage*> list() const;

 private:
  EntropyRegistry();

  mutable std::mutex mu_;
  std::map<std::uint8_t, std::unique_ptr<EntropyStage>> by_id_;
  std::map<std::string, const EntropyStage*> by_name_;
};

/// Built-in stages, defined next to their coders: huffman+lossless
/// (entropy.cpp) and ans (ans.cpp).
std::unique_ptr<EntropyStage> make_huffman_stage();
std::unique_ptr<EntropyStage> make_ans_stage();

}  // namespace ocelot
