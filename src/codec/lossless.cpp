#include "codec/lossless.hpp"

#include <string>

#include "codec/lzb.hpp"
#include "codec/rle.hpp"
#include "common/buffer_pool.hpp"
#include "common/error.hpp"

namespace ocelot {

std::string to_string(LosslessBackend backend) {
  switch (backend) {
    case LosslessBackend::kNone:
      return "none";
    case LosslessBackend::kLzb:
      return "lzb";
    case LosslessBackend::kRleLzb:
      return "rle+lzb";
  }
  return "unknown";
}

void lossless_compress(std::span<const std::uint8_t> raw,
                       LosslessBackend backend, ByteSink& out) {
  out.put(static_cast<std::uint8_t>(backend));
  switch (backend) {
    case LosslessBackend::kNone:
      out.put_bytes(raw);
      break;
    case LosslessBackend::kLzb:
      lzb_compress(raw, out);
      break;
    case LosslessBackend::kRleLzb: {
      ScratchLease<std::uint8_t> rle(ScratchPool<std::uint8_t>::shared(),
                                     raw.size());
      ByteSink rle_sink(*rle);
      rle_compress(raw, rle_sink);
      lzb_compress(*rle, out);
      break;
    }
    default:
      throw InvalidArgument("lossless_compress: unknown backend");
  }
}

void lossless_decompress_into(std::span<const std::uint8_t> compressed,
                              std::size_t max_bytes, Bytes& out) {
  BytesReader in(compressed);
  const auto id = in.get<std::uint8_t>();
  const auto payload = in.get_bytes(in.remaining());
  switch (static_cast<LosslessBackend>(id)) {
    case LosslessBackend::kNone:
      if (payload.size() > max_bytes)
        throw CorruptStream("lossless: stream holds " +
                            std::to_string(payload.size()) +
                            " bytes, more than the " +
                            std::to_string(max_bytes) + " allowed");
      out.assign(payload.begin(), payload.end());
      return;
    case LosslessBackend::kLzb:
      lzb_decompress_into(payload, max_bytes, out);
      return;
    case LosslessBackend::kRleLzb: {
      ScratchLease<std::uint8_t> rle(ScratchPool<std::uint8_t>::shared());
      lzb_decompress_into(payload, rle_max_stream_bytes(max_bytes), *rle);
      rle_decompress_into(*rle, max_bytes, out);
      return;
    }
  }
  throw CorruptStream("lossless_decompress: unknown backend id");
}

}  // namespace ocelot
