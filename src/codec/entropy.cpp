#include "codec/entropy.hpp"

#include "codec/ans.hpp"
#include "codec/huffman.hpp"
#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

// --- stage 0: the legacy Huffman+lossless chain ----------------------

/// The one Huffman+lossless chain, behind both the huffman stage and
/// the packed-section dispatch. Its output starts with the
/// LosslessBackend byte lossless_compress writes, which is exactly why
/// ids 1-2 are reserved: a legacy section is a stage-0 section whose
/// first byte happens to be the lossless id.
void encode_huffman_chain(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    LosslessBackend lossless, ByteSink& out) {
  ScratchLease<std::uint8_t> huff(ScratchPool<std::uint8_t>::shared());
  ByteSink huff_sink(*huff);
  {
    OCELOT_SPAN("codec.huffman");
    huffman_encode(codes, hist, huff_sink);
  }
  OCELOT_SPAN("codec.lossless");
  lossless_compress(*huff, lossless, out);
}

void decode_huffman_chain(std::span<const std::uint8_t> section,
                          std::size_t max_symbols,
                          std::vector<std::uint32_t>& out) {
  ScratchLease<std::uint8_t> huff(ScratchPool<std::uint8_t>::shared());
  lossless_decompress_into(section, huffman_max_stream_bytes(max_symbols),
                           *huff);
  huffman_decode_into(*huff, max_symbols, out);
}

class HuffmanLzbStage final : public EntropyStage {
 public:
  void encode_into(std::span<const std::uint32_t> codes,
                   ByteSink& out) const override {
    encode_huffman_chain(codes, histogram_symbols(codes),
                         LosslessBackend::kLzb, out);
  }

  void decode_into(std::span<const std::uint8_t> payload,
                   std::size_t max_symbols,
                   std::vector<std::uint32_t>& out) const override {
    decode_huffman_chain(payload, max_symbols, out);
  }
};

// --- stage 3: tabled rANS --------------------------------------------

class AnsStage final : public EntropyStage {
 public:
  // The stage payload is a lossless pass over the rANS stream,
  // mirroring the legacy Huffman chain: a static-table coder maps a
  // symbol run onto a periodic state orbit, so its output bytes repeat
  // and a dictionary/run pass recovers the run redundancy an order-0
  // model cannot see. The pass is chosen per payload — lzb and
  // rle+lzb both run and the smaller result wins (the lossless header
  // byte is self-describing, so decode just dispatches). Deterministic
  // for a given payload, and what keeps "ans" at or above the legacy
  // chain's ratio on run-heavy quantized codes.
  void encode_into(std::span<const std::uint32_t> codes,
                   ByteSink& out) const override {
    ScratchLease<std::uint8_t> stream(ScratchPool<std::uint8_t>::shared());
    ByteSink stream_sink(*stream);
    ans_encode(codes, stream_sink);
    ScratchLease<std::uint8_t> lzb(ScratchPool<std::uint8_t>::shared());
    ByteSink lzb_sink(*lzb);
    lossless_compress(*stream, LosslessBackend::kLzb, lzb_sink);
    ScratchLease<std::uint8_t> rle(ScratchPool<std::uint8_t>::shared());
    ByteSink rle_sink(*rle);
    lossless_compress(*stream, LosslessBackend::kRleLzb, rle_sink);
    const Bytes& best = rle->size() < lzb->size() ? *rle : *lzb;
    out.put_bytes(best);
  }

  void decode_into(std::span<const std::uint8_t> payload,
                   std::size_t max_symbols,
                   std::vector<std::uint32_t>& out) const override {
    ScratchLease<std::uint8_t> stream(ScratchPool<std::uint8_t>::shared());
    lossless_decompress_into(payload, ans_max_stream_bytes(max_symbols),
                             *stream);
    ans_decode_into(*stream, max_symbols, out);
  }
};

/// Every assigned wire id, indexed by id.
std::span<const EntropyStageEntry> entropy_table() {
  static const HuffmanLzbStage huffman;
  static const AnsStage ans;
  // The row index is the wire id: append new stages, never reorder or
  // reuse a row.
  static const EntropyStageEntry table[] = {
      {kEntropyHuffmanId, "huffman",
       "canonical Huffman + lossless chain (legacy default)", &huffman},
      {1, "", "legacy chain, lossless byte 1 (lzb)", nullptr},
      {kMaxLegacyEntropyId, "", "legacy chain, lossless byte 2 (rle+lzb)",
       nullptr},
      {kEntropyAnsId, "ans",
       "tabled static rANS (8-15 bit scale, varint fallback)", &ans},
      {kRetiredBwtMtfId, "bwt-mtf", "removed", nullptr},
      {kRetiredLzwId, "lzw", "removed", nullptr},
  };
  return table;
}

}  // namespace

std::span<const EntropyStageEntry* const> entropy_stages() {
  static const std::vector<const EntropyStageEntry*> live = [] {
    std::vector<const EntropyStageEntry*> stages;
    for (const EntropyStageEntry& entry : entropy_table()) {
      if (entry.stage != nullptr) stages.push_back(&entry);
    }
    return stages;
  }();
  return live;
}

const EntropyStageEntry& entropy_stage_by_name(std::string_view name) {
  for (const EntropyStageEntry* entry : entropy_stages()) {
    if (entry->name == name) return *entry;
  }
  std::string msg =
      "unknown entropy stage: " + std::string(name) + " (registered:";
  for (const EntropyStageEntry* entry : entropy_stages())
    msg += " " + entry->name;
  throw InvalidArgument(msg + ")");
}

const EntropyStageEntry& entropy_stage_by_id(std::uint8_t id) {
  const std::span<const EntropyStageEntry> table = entropy_table();
  if (id >= table.size() || table[id].name.empty())
    throw CorruptStream("entropy: unknown stage id " + std::to_string(id));
  if (table[id].stage == nullptr)
    throw CorruptStream("entropy: stage id " + std::to_string(id) + " (" +
                        table[id].name + ") was removed and cannot be decoded");
  return table[id];
}

// --- packed-section dispatch -----------------------------------------

void entropy_encode_codes(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    const EntropyStageEntry& stage, LosslessBackend lossless, ByteSink& out) {
  if (stage.wire_id == kEntropyHuffmanId) {
    // Legacy chain, honoring the configured lossless backend: the
    // section's leading byte is the lossless id, and the bytes match
    // the pre-table writer bit for bit.
    encode_huffman_chain(codes, hist, lossless, out);
    return;
  }
  out.put(stage.wire_id);
  stage.stage->encode_into(codes, out);
}

void entropy_decode_codes_into(std::span<const std::uint8_t> packed,
                               std::size_t max_symbols,
                               std::vector<std::uint32_t>& out) {
  if (packed.empty()) throw CorruptStream("entropy: empty codes section");
  const std::uint8_t id = packed[0];
  if (id <= kMaxLegacyEntropyId) {
    // Legacy chain: the id byte is the lossless backend id and belongs
    // to the lossless framing, so the whole span passes through.
    decode_huffman_chain(packed, max_symbols, out);
    return;
  }
  entropy_stage_by_id(id).stage->decode_into(packed.subspan(1), max_symbols,
                                             out);
}

}  // namespace ocelot
