#include "codec/rle.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"

namespace ocelot {

void rle_compress(std::span<const std::uint8_t> raw, ByteSink& out) {
  out.put_varint(raw.size());
  std::size_t i = 0;
  while (i < raw.size()) {
    const std::uint8_t v = raw[i];
    std::size_t run = 1;
    while (i + run < raw.size() && raw[i + run] == v) ++run;
    if (run >= 2) {
      // Two copies signal a run; the varint carries the remainder.
      out.put(v);
      out.put(v);
      out.put_varint(run - 2);
    } else {
      out.put(v);
    }
    i += run;
  }
}

std::size_t rle_max_stream_bytes(std::size_t raw_bytes) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (raw_bytes > (kMax - 10) / 3 * 2) return kMax;
  return 10 + raw_bytes + raw_bytes / 2;
}

void rle_decompress_into(std::span<const std::uint8_t> compressed,
                         std::size_t max_bytes, Bytes& out) {
  out.clear();
  BytesReader in(compressed);
  const std::uint64_t raw_size = in.get_varint();
  if (raw_size > max_bytes)
    throw CorruptStream("rle: stream claims " + std::to_string(raw_size) +
                        " bytes, more than the " + std::to_string(max_bytes) +
                        " allowed");
  out.reserve(raw_size);
  while (out.size() < raw_size) {
    const auto v = in.get<std::uint8_t>();
    out.push_back(v);
    if (out.size() < raw_size && in.remaining() > 0) {
      // Peek for the run escape: a second identical byte.
      BytesReader peek_check = in;  // cheap copy: span + offset
      const auto next = peek_check.get<std::uint8_t>();
      if (next == v) {
        in = peek_check;
        const std::uint64_t extra = in.get_varint();
        if (out.size() + 1 + extra > raw_size)
          throw CorruptStream("rle: run overflow");
        out.insert(out.end(), 1 + extra, v);
      }
    }
  }
}

}  // namespace ocelot
