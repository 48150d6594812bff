#pragma once
// The entropy stages: one fixed table, indexed by wire id.
//
// The quantized-code streams every compressor backend produces go
// through an entropy stage, resolved by name (when writing, from
// CompressionConfig::entropy) or by the wire id stored in a packed
// section's leading byte (when reading). The stage owns the encode and
// decode of the section payload.
//
// Wire format of a packed codes section:
//
//   [u8 id][payload...]
//
//   id 0-2  legacy Huffman+lossless chain ("huffman"). The byte doubles
//           as the LosslessBackend id (0 none, 1 lzb, 2 rle+lzb) so
//           blobs written before stage ids existed parse bit-exactly —
//           and the default path still emits these exact bytes.
//   id 3    "ans"; the stage decodes the payload.
//   id 4-5  retired: the removed "bwt-mtf" and "lzw" stages. Decoding
//           either throws CorruptStream naming the stage, and their
//           rows stay in the table, so an old section never decodes as
//           some later stage.
//
// The table in entropy.cpp is the one place a stage is given its id
// (the constants below name the ids other code refers to). Adding a
// stage = implement EntropyStage and append a row at the next wire id
// (6). See CONTRIBUTING.md for the full recipe.
//
// Stages follow the zero-copy rules: encode appends into a ByteSink
// (no intermediate vectors on the caller's side), decode consumes a
// span.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codec/lossless.hpp"
#include "common/bytes.hpp"

namespace ocelot {

/// Wire ids of the stages. 1 and 2 are the legacy chain's
/// LosslessBackend byte (see above).
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

  /// Encodes a u32 symbol stream into `out`.
  virtual void encode_into(std::span<const std::uint32_t> codes,
                           ByteSink& out) const = 0;
  /// Decodes a payload written by encode_into into `out`. Throws
  /// CorruptStream on malformed input, and before allocating when the
  /// payload claims more than `max_symbols` symbols.
  virtual void decode_into(std::span<const std::uint8_t> payload,
                           std::size_t max_symbols,
                           std::vector<std::uint32_t>& out) const = 0;
};

/// One row of the entropy-stage table, whose index is the wire id.
struct EntropyStageEntry {
  std::uint8_t wire_id;
  std::string name;  ///< stable, lowercase; empty for ids 1-2
  std::string description;
  /// nullptr for ids 1-2 and the retired 4-5.
  const EntropyStage* stage;
};

/// The stages a writer can pick, in wire-id order. Built on first use
/// from function-local statics.
std::span<const EntropyStageEntry* const> entropy_stages();

/// Lookup for writers: throws InvalidArgument (listing the names) when
/// `name` is not a live stage.
const EntropyStageEntry& entropy_stage_by_name(std::string_view name);

/// Lookup for readers: throws CorruptStream when the wire id is
/// unknown (a foreign or corrupt section) or retired (naming the
/// removed stage).
const EntropyStageEntry& entropy_stage_by_id(std::uint8_t id);

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
    const EntropyStageEntry& stage, LosslessBackend lossless, ByteSink& out);

/// Decodes a packed codes section, dispatching on the leading byte.
/// Throws CorruptStream for empty sections, unknown or retired stage
/// ids, and sections claiming more than `max_symbols` symbols.
void entropy_decode_codes_into(std::span<const std::uint8_t> packed,
                               std::size_t max_symbols,
                               std::vector<std::uint32_t>& out);

}  // namespace ocelot
