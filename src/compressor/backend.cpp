#include "compressor/backend.hpp"

#include <cstring>

#include "codec/entropy.hpp"
#include "obs/trace.hpp"

namespace ocelot {

void pack_codes_hist(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    const CompressionConfig& config, ByteSink& out) {
  OCELOT_SPAN("codec.entropy.codes");
  const std::size_t out_before = out.size();
  entropy_encode_codes(codes, hist, entropy_stage_by_name(config.entropy),
                       config.lossless, out);
  OCELOT_COUNT("codec.entropy_in_bytes", codes.size_bytes());
  OCELOT_COUNT("codec.entropy_out_bytes", out.size() - out_before);
}

void unpack_codes_into(std::span<const std::uint8_t> packed,
                       std::size_t max_symbols,
                       std::vector<std::uint32_t>& out) {
  OCELOT_SPAN("codec.entropy.decode");
  entropy_decode_codes_into(packed, max_symbols, out);
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
                            std::size_t max_values, std::vector<T>& out) {
  ScratchLease<std::uint8_t> bytes(ScratchPool<std::uint8_t>::shared());
  lossless_decompress_into(packed, max_values * sizeof(T), *bytes);
  if (bytes->size() % sizeof(T) != 0)
    throw CorruptStream("blob: raw value section misaligned");
  out.resize(bytes->size() / sizeof(T));
  if (!bytes->empty()) std::memcpy(out.data(), bytes->data(), bytes->size());
}

template void unpack_raw_values_into<float>(std::span<const std::uint8_t>,
                                            std::size_t, std::vector<float>&);
template void unpack_raw_values_into<double>(std::span<const std::uint8_t>,
                                             std::size_t,
                                             std::vector<double>&);

const BackendEntry& backend_by_name(std::string_view name) {
  for (const BackendEntry& entry : backends()) {
    if (entry.name == name) return entry;
  }
  std::string msg = "unknown compressor backend: " + std::string(name) +
                    " (registered:";
  for (const BackendEntry& entry : backends()) msg += " " + entry.name;
  throw InvalidArgument(msg + ")");
}

const BackendEntry& backend_by_id(std::uint8_t id) {
  const std::span<const BackendEntry> table = backends();
  if (id >= table.size())
    throw CorruptStream("blob: unknown backend id " + std::to_string(id));
  return table[id];
}

std::vector<std::string> registered_backend_names() {
  std::vector<std::string> names;
  for (const BackendEntry& entry : backends()) names.push_back(entry.name);
  return names;
}

}  // namespace ocelot
