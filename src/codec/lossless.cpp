#include "codec/lossless.hpp"

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
      PooledBuffer rle(BufferPool::shared(), raw.size());
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
                              Bytes& out) {
  BytesReader in(compressed);
  const auto id = in.get<std::uint8_t>();
  const auto payload = in.get_bytes(in.remaining());
  switch (static_cast<LosslessBackend>(id)) {
    case LosslessBackend::kNone:
      out.assign(payload.begin(), payload.end());
      return;
    case LosslessBackend::kLzb:
      lzb_decompress_into(payload, out);
      return;
    case LosslessBackend::kRleLzb: {
      PooledBuffer rle(BufferPool::shared());
      lzb_decompress_into(payload, *rle);
      rle_decompress_into(*rle, out);
      return;
    }
  }
  throw CorruptStream("lossless_decompress: unknown backend id");
}

}  // namespace ocelot
