#include "compressor/backend.hpp"

#include <cstring>
#include <sstream>

#include "codec/entropy.hpp"
#include "compressor/multigrid.hpp"
#include "obs/trace.hpp"

namespace ocelot {

void pack_codes_hist(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    const CompressionConfig& config, ByteSink& out) {
  OCELOT_SPAN("codec.entropy.codes");
  const std::size_t out_before = out.size();
  const EntropyStage& stage =
      EntropyRegistry::instance().by_name(config.entropy);
  entropy_encode_codes(codes, hist, stage, config.lossless, out);
  OCELOT_COUNT("codec.entropy_in_bytes", codes.size_bytes());
  OCELOT_COUNT("codec.entropy_out_bytes", out.size() - out_before);
}

void unpack_codes_into(std::span<const std::uint8_t> packed,
                       std::vector<std::uint32_t>& out) {
  OCELOT_SPAN("codec.entropy.decode");
  entropy_decode_codes_into(packed, out);
}

template <typename T>
void pack_raw_values(std::span<const T> values, LosslessBackend lossless,
                     ByteSink& out) {
  OCELOT_SPAN("codec.entropy.raw");
  const std::size_t out_before = out.size();
  std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(T)};
  lossless_compress(bytes, lossless, out);
  OCELOT_COUNT("codec.entropy_in_bytes", bytes.size());
  OCELOT_COUNT("codec.entropy_out_bytes", out.size() - out_before);
}

template void pack_raw_values<float>(std::span<const float>, LosslessBackend,
                                     ByteSink&);
template void pack_raw_values<double>(std::span<const double>, LosslessBackend,
                                      ByteSink&);

template <typename T>
void unpack_raw_values_into(std::span<const std::uint8_t> packed,
                            std::vector<T>& out) {
  PooledBuffer bytes(BufferPool::shared());
  lossless_decompress_into(packed, *bytes);
  if (bytes->size() % sizeof(T) != 0)
    throw CorruptStream("blob: raw value section misaligned");
  out.resize(bytes->size() / sizeof(T));
  if (!bytes->empty()) std::memcpy(out.data(), bytes->data(), bytes->size());
}

template void unpack_raw_values_into<float>(std::span<const std::uint8_t>,
                                            std::vector<float>&);
template void unpack_raw_values_into<double>(std::span<const std::uint8_t>,
                                             std::vector<double>&);

BackendRegistry::BackendRegistry() {
  for (auto& backend : make_sz_backends()) add(std::move(backend));
  add(make_multigrid_backend());
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

const CompressorBackend& BackendRegistry::add(
    std::unique_ptr<CompressorBackend> backend) {
  require(backend != nullptr, "BackendRegistry: null backend");
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string name = backend->name();
  const std::uint8_t id = backend->wire_id();
  require(!name.empty(), "BackendRegistry: empty backend name");
  if (by_name_.count(name) > 0)
    throw InvalidArgument("BackendRegistry: duplicate backend name " + name);
  if (by_id_.count(id) > 0)
    throw InvalidArgument("BackendRegistry: duplicate backend wire id " +
                          std::to_string(id) + " (" + name + ")");
  const CompressorBackend* raw = backend.get();
  by_id_[id] = std::move(backend);
  by_name_[name] = raw;
  return *raw;
}

const CompressorBackend& BackendRegistry::by_name(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    std::ostringstream msg;
    msg << "unknown compressor backend: " << name << " (registered:";
    for (const auto& [id, backend] : by_id_) msg << " " << backend->name();
    msg << ")";
    throw InvalidArgument(msg.str());
  }
  return *it->second;
}

const CompressorBackend& BackendRegistry::by_id(std::uint8_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end())
    throw CorruptStream("blob: unknown backend id " + std::to_string(id));
  return *it->second;
}

const CompressorBackend* BackendRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const CompressorBackend* BackendRegistry::find_by_id(std::uint8_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

std::vector<const CompressorBackend*> BackendRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const CompressorBackend*> backends;
  backends.reserve(by_id_.size());
  for (const auto& [id, backend] : by_id_) backends.push_back(backend.get());
  return backends;
}

std::vector<std::string> registered_backend_names() {
  std::vector<std::string> names;
  for (const CompressorBackend* b : BackendRegistry::instance().list()) {
    names.push_back(b->name());
  }
  return names;
}

}  // namespace ocelot
