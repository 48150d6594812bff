#include "codec/entropy.hpp"
#include <sstream>

#include "codec/huffman.hpp"
#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot {

// --- stage 0: the legacy Huffman+lossless chain ----------------------

namespace {

/// The one Huffman+lossless chain, behind both the huffman stage and
/// the packed-section dispatch. Its output starts with the
/// LosslessBackend byte lossless_compress writes, which is exactly why
/// ids 1-2 are reserved: a legacy section is a stage-0 section whose
/// first byte happens to be the lossless id.
void encode_huffman_chain(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    LosslessBackend lossless, ByteSink& out) {
  PooledBuffer huff(BufferPool::shared());
  ByteSink huff_sink(*huff);
  {
    OCELOT_SPAN("codec.huffman");
    huffman_encode(codes, hist, huff_sink);
  }
  OCELOT_SPAN("codec.lossless");
  lossless_compress(*huff, lossless, out);
}

void decode_huffman_chain(std::span<const std::uint8_t> section,
                          std::vector<std::uint32_t>& out) {
  PooledBuffer huff(BufferPool::shared());
  lossless_decompress_into(section, *huff);
  huffman_decode_into(*huff, out);
}

class HuffmanLzbStage final : public EntropyStage {
 public:
  [[nodiscard]] std::string name() const override { return "huffman"; }
  [[nodiscard]] std::uint8_t wire_id() const override {
    return kEntropyHuffmanId;
  }
  [[nodiscard]] std::string description() const override {
    return "canonical Huffman + lossless chain (legacy default)";
  }

  void encode_into(std::span<const std::uint32_t> codes,
                   ByteSink& out) const override {
    encode_huffman_chain(codes, histogram_symbols(codes),
                         LosslessBackend::kLzb, out);
  }

  void decode_into(std::span<const std::uint8_t> payload,
                   std::vector<std::uint32_t>& out) const override {
    decode_huffman_chain(payload, out);
  }
};

}  // namespace

std::unique_ptr<EntropyStage> make_huffman_stage() {
  return std::make_unique<HuffmanLzbStage>();
}

// --- packed-section dispatch -----------------------------------------

void entropy_encode_codes(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    const EntropyStage& stage, LosslessBackend lossless, ByteSink& out) {
  if (stage.wire_id() == kEntropyHuffmanId) {
    // Legacy chain, honoring the configured lossless backend: the
    // section's leading byte is the lossless id, and the bytes match
    // the pre-registry writer bit for bit.
    encode_huffman_chain(codes, hist, lossless, out);
    return;
  }
  out.put(stage.wire_id());
  stage.encode_into(codes, out);
}

void entropy_decode_codes_into(std::span<const std::uint8_t> packed,
                               std::vector<std::uint32_t>& out) {
  if (packed.empty()) throw CorruptStream("entropy: empty codes section");
  const std::uint8_t id = packed[0];
  if (id <= kMaxLegacyEntropyId) {
    // Legacy chain: the id byte is the lossless backend id and belongs
    // to the lossless framing, so the whole span passes through.
    decode_huffman_chain(packed, out);
    return;
  }
  EntropyRegistry::instance().by_id(id).decode_into(packed.subspan(1), out);
}

// --- registry --------------------------------------------------------

namespace {

/// Name of the removed stage that owned wire id `id`, or nullptr.
const char* retired_stage_name(std::uint8_t id) {
  switch (id) {
    case kRetiredBwtMtfId:
      return "bwt-mtf";
    case kRetiredLzwId:
      return "lzw";
    default:
      return nullptr;
  }
}

}  // namespace

EntropyRegistry::EntropyRegistry() {
  add(make_huffman_stage());
  add(make_ans_stage());
}

EntropyRegistry& EntropyRegistry::instance() {
  static EntropyRegistry registry;
  return registry;
}

const EntropyStage& EntropyRegistry::add(std::unique_ptr<EntropyStage> stage) {
  require(stage != nullptr, "EntropyRegistry: null stage");
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string name = stage->name();
  const std::uint8_t id = stage->wire_id();
  require(!name.empty(), "EntropyRegistry: empty stage name");
  if (id != kEntropyHuffmanId && id <= kMaxLegacyEntropyId)
    throw InvalidArgument(
        "EntropyRegistry: wire ids 1-2 are reserved for the legacy "
        "lossless chain (" +
        name + ")");
  if (const char* retired = retired_stage_name(id))
    throw InvalidArgument("EntropyRegistry: wire id " + std::to_string(id) +
                          " is retired with the removed stage " + retired +
                          " (" + name + ")");
  if (by_name_.count(name) > 0)
    throw InvalidArgument("EntropyRegistry: duplicate stage name " + name);
  if (by_id_.count(id) > 0)
    throw InvalidArgument("EntropyRegistry: duplicate stage wire id " +
                          std::to_string(id) + " (" + name + ")");
  const EntropyStage* raw = stage.get();
  by_id_[id] = std::move(stage);
  by_name_[name] = raw;
  return *raw;
}

const EntropyStage& EntropyRegistry::by_name(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    std::ostringstream msg;
    msg << "unknown entropy stage: " << name << " (registered:";
    for (const auto& [id, stage] : by_id_) msg << " " << stage->name();
    msg << ")";
    throw InvalidArgument(msg.str());
  }
  return *it->second;
}

const EntropyStage& EntropyRegistry::by_id(std::uint8_t id) const {
  if (const char* retired = retired_stage_name(id))
    throw CorruptStream("entropy: stage id " + std::to_string(id) + " (" +
                        retired + ") was removed and cannot be decoded");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end())
    throw CorruptStream("entropy: unknown stage id " + std::to_string(id));
  return *it->second;
}

const EntropyStage* EntropyRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const EntropyStage* EntropyRegistry::find_by_id(std::uint8_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

std::vector<const EntropyStage*> EntropyRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const EntropyStage*> stages;
  stages.reserve(by_id_.size());
  for (const auto& [id, stage] : by_id_) stages.push_back(stage.get());
  return stages;
}

}  // namespace ocelot
