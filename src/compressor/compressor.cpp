#include "compressor/compressor.hpp"

#include <cstring>

#include "codec/entropy.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "compressor/backend.hpp"
#include "compressor/kernels/dispatch.hpp"

namespace ocelot {

namespace {

constexpr std::uint8_t kMagic[4] = {'O', 'C', 'Z', '1'};
// Header variant carrying an entropy-stage byte after the backend id.
// Emitted only when config.entropy is not the default chain, so
// default-path blobs keep the exact OCZ1 bytes.
constexpr std::uint8_t kMagic2[4] = {'O', 'C', 'Z', '2'};

// The header's dtype byte: 0 is f32, the only sample type. 1 was f64,
// whose codec path is gone; it and every other value are refused.
constexpr std::uint8_t kDtypeF32 = 0;
constexpr std::uint8_t kRetiredDtypeF64 = 1;

BlobHeader read_header(BytesReader& in) {
  const auto magic = in.get_bytes(4);
  const bool v2 = std::memcmp(magic.data(), kMagic2, 4) == 0;
  if (!v2 && std::memcmp(magic.data(), kMagic, 4) != 0)
    throw CorruptStream("blob: bad magic");
  const std::uint8_t dtype = in.get<std::uint8_t>();
  if (dtype == kRetiredDtypeF64)
    throw CorruptStream("blob: dtype 1 (f64) is no longer supported");
  if (dtype != kDtypeF32)
    throw CorruptStream("blob: unknown dtype " + std::to_string(dtype));
  BlobHeader h;
  h.backend_id = in.get<std::uint8_t>();
  if (v2) h.entropy_id = in.get<std::uint8_t>();
  h.abs_eb = in.get<double>();
  if (!(h.abs_eb > 0.0)) throw CorruptStream("blob: bad error bound");
  h.quant_radius = static_cast<std::uint32_t>(in.get_varint());
  h.anchor_stride = in.get_varint();
  h.block_size = in.get_varint();
  if (h.block_size == 0) throw CorruptStream("blob: zero block size");
  h.shape = read_shape(in, in.get<std::uint8_t>());
  return h;
}

/// The one decode path: header and backend checks and the section
/// index come first; `destination(declared_shape)` then returns the
/// span the backend decodes into.
template <typename Destination>
void decode_blob(std::span<const std::uint8_t> blob,
                 Destination&& destination) {
  BytesReader in(blob);
  const BlobHeader h = read_header(in);
  const CompressorBackend& backend = backend_by_id(h.backend_id).codec;
  SectionReader sections(in);
  const std::span<float> out = destination(h.shape);
  backend.decode(h, sections, out);
}

}  // namespace

void write_shape(ByteSink& out, const Shape& shape) {
  out.put(static_cast<std::uint8_t>(shape.rank()));
  for (int d = 0; d < shape.rank(); ++d) out.put_varint(shape.dim(d));
}

Shape read_shape(BytesReader& in, int rank) {
  if (rank < 1 || rank > 3) throw CorruptStream("shape: bad rank");
  std::size_t dims[3] = {1, 1, 1};
  std::uint64_t elements = 1;
  for (int d = 0; d < rank; ++d) {
    dims[d] = in.get_varint();
    if (dims[d] == 0) throw CorruptStream("shape: zero dimension");
    if (dims[d] > kMaxShapeElements / elements)
      throw CorruptStream("shape: implausible dimensions");
    elements *= dims[d];
  }
  if (rank == 1) return Shape(dims[0]);
  if (rank == 2) return Shape(dims[0], dims[1]);
  return Shape(dims[0], dims[1], dims[2]);
}

double resolve_abs_eb(const FieldView& data, const CompressionConfig& config) {
  require(config.eb > 0.0, "compress: error bound must be positive");
  if (config.eb_mode == EbMode::kAbsolute) return config.eb;
  const double range =
      kernels::value_range(data.values().data(), data.values().size());
  // A constant field has zero range; fall back to the raw bound so the
  // quantizer still has a valid width.
  return config.eb * (range > 0.0 ? range : 1.0);
}

void compress_into(const FieldView& data, const CompressionConfig& config,
                   ByteSink& out) {
  const BackendEntry& backend = backend_by_name(config.backend);
  const double abs_eb = resolve_abs_eb(data, config);
  const std::uint8_t entropy_id =
      entropy_stage_by_name(config.entropy).wire_id;

  if (entropy_id == kEntropyHuffmanId) {
    out.put_bytes(kMagic);  // default chain: unchanged OCZ1 bytes
  } else {
    out.put_bytes(kMagic2);
  }
  out.put(kDtypeF32);
  out.put(backend.wire_id);
  if (entropy_id != kEntropyHuffmanId) out.put(entropy_id);
  out.put(abs_eb);
  out.put_varint(kDefaultQuantRadius);
  out.put_varint(kMaxAnchorStride);
  out.put_varint(kSz2BlockSize);
  write_shape(out, data.shape());

  // Sections stream into the same sink as they are produced; only the
  // count byte is patched afterwards, so the wire bytes match the old
  // buffered assembly exactly.
  SectionWriter sections(out);
  backend.codec.encode(data, abs_eb, config, sections);
  sections.finish();
}

Bytes compress(const FieldView& data, const CompressionConfig& config) {
  BytesWriter out;
  compress_into(data, config, out);
  return out.take();
}

BlobInfo inspect_blob(std::span<const std::uint8_t> blob) {
  BytesReader in(blob);
  const BlobHeader h = read_header(in);
  BlobInfo info;
  info.backend = backend_by_id(h.backend_id).name;
  info.backend_id = h.backend_id;
  info.entropy = entropy_stage_by_id(h.entropy_id).name;
  info.entropy_id = h.entropy_id;
  info.abs_eb = h.abs_eb;
  info.shape = h.shape;
  info.compressed_bytes = blob.size();
  info.raw_bytes = h.shape.size() * sizeof(float);
  return info;
}

FloatArray decompress(std::span<const std::uint8_t> blob) {
  FloatArray out;
  decode_blob(blob, [&](const Shape& shape) {
    out = FloatArray(shape);
    return out.values();
  });
  return out;
}

void decompress_into(std::span<const std::uint8_t> blob, const Shape& shape,
                     std::span<float> out) {
  require(out.size() == shape.size(),
          "decompress_into: storage does not match the shape");
  decode_blob(blob, [&](const Shape& declared) {
    if (!(declared == shape))
      throw CorruptStream("blob: declared shape does not match the storage");
    return out;
  });
}

RoundTripStats measure_roundtrip(const FieldView& data,
                                 const CompressionConfig& config) {
  RoundTripStats stats;
  Timer ct;
  const Bytes blob = compress(data, config);
  stats.compress_seconds = ct.seconds();

  Timer dt;
  const FloatArray recon = decompress(blob);
  stats.decompress_seconds = dt.seconds();

  stats.compressed_bytes = blob.size();
  stats.compression_ratio = static_cast<double>(data.values().size_bytes()) /
                            static_cast<double>(blob.size());
  stats.psnr_db = psnr<float>(data.values(), recon.values());
  stats.max_error = max_abs_error<float>(data.values(), recon.values());
  stats.abs_eb = resolve_abs_eb(data, config);
  return stats;
}

}  // namespace ocelot
