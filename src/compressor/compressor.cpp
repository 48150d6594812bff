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

template <typename T>
constexpr std::uint8_t dtype_id() {
  return sizeof(T) == 8 ? 1 : 0;
}

BlobHeader read_header(BytesReader& in) {
  const auto magic = in.get_bytes(4);
  const bool v2 = std::memcmp(magic.data(), kMagic2, 4) == 0;
  if (!v2 && std::memcmp(magic.data(), kMagic, 4) != 0)
    throw CorruptStream("blob: bad magic");
  BlobHeader h;
  h.dtype = in.get<std::uint8_t>();
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

/// The one decode path: header, dtype and backend checks and the
/// section index come first; `destination(declared_shape)` then
/// returns the span the backend decodes into.
template <typename T, typename Destination>
void decode_blob(std::span<const std::uint8_t> blob,
                 Destination&& destination) {
  BytesReader in(blob);
  const BlobHeader h = read_header(in);
  if (h.dtype != dtype_id<T>())
    throw InvalidArgument("decompress: dtype mismatch");
  const CompressorBackend& backend = backend_by_id(h.backend_id).codec;
  SectionReader sections(in);
  const std::span<T> out = destination(h.shape);
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

template <typename T>
double resolve_abs_eb(const NdArray<T>& data,
                      const CompressionConfig& config) {
  require(config.eb > 0.0, "compress: error bound must be positive");
  if (config.eb_mode == EbMode::kAbsolute) return config.eb;
  const double range =
      kernels::value_range(data.values().data(), data.values().size());
  // A constant field has zero range; fall back to the raw bound so the
  // quantizer still has a valid width.
  return config.eb * (range > 0.0 ? range : 1.0);
}

template double resolve_abs_eb<float>(const NdArray<float>&,
                                      const CompressionConfig&);
template double resolve_abs_eb<double>(const NdArray<double>&,
                                       const CompressionConfig&);

template <typename T>
void compress_into(const NdArray<T>& data, const CompressionConfig& config,
                   ByteSink& out) {
  require(data.size() > 0, "compress: empty array");
  const BackendEntry& backend = backend_by_name(config.backend);
  const double abs_eb = resolve_abs_eb(data, config);
  const std::uint8_t entropy_id =
      entropy_stage_by_name(config.entropy).wire_id;

  if (entropy_id == kEntropyHuffmanId) {
    out.put_bytes(kMagic);  // default chain: unchanged OCZ1 bytes
  } else {
    out.put_bytes(kMagic2);
  }
  out.put(dtype_id<T>());
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

template void compress_into<float>(const NdArray<float>&,
                                   const CompressionConfig&, ByteSink&);
template void compress_into<double>(const NdArray<double>&,
                                    const CompressionConfig&, ByteSink&);

template <typename T>
Bytes compress(const NdArray<T>& data, const CompressionConfig& config) {
  BytesWriter out;
  compress_into(data, config, out);
  return out.take();
}

template Bytes compress<float>(const NdArray<float>&,
                               const CompressionConfig&);
template Bytes compress<double>(const NdArray<double>&,
                                const CompressionConfig&);

BlobInfo inspect_blob(std::span<const std::uint8_t> blob) {
  BytesReader in(blob);
  const BlobHeader h = read_header(in);
  BlobInfo info;
  info.is_double = h.dtype == 1;
  info.backend = backend_by_id(h.backend_id).name;
  info.backend_id = h.backend_id;
  info.entropy = entropy_stage_by_id(h.entropy_id).name;
  info.entropy_id = h.entropy_id;
  info.abs_eb = h.abs_eb;
  info.shape = h.shape;
  info.compressed_bytes = blob.size();
  info.raw_bytes = h.shape.size() * (info.is_double ? 8 : 4);
  return info;
}

template <typename T>
NdArray<T> decompress(std::span<const std::uint8_t> blob) {
  NdArray<T> out;
  decode_blob<T>(blob, [&](const Shape& shape) {
    out = NdArray<T>(shape);
    return out.values();
  });
  return out;
}

template NdArray<float> decompress<float>(std::span<const std::uint8_t>);
template NdArray<double> decompress<double>(std::span<const std::uint8_t>);

template <typename T>
void decompress_into(std::span<const std::uint8_t> blob, const Shape& shape,
                     std::span<T> out) {
  require(out.size() == shape.size(),
          "decompress_into: storage does not match the shape");
  decode_blob<T>(blob, [&](const Shape& declared) {
    if (!(declared == shape))
      throw CorruptStream("blob: declared shape does not match the storage");
    return out;
  });
}

template void decompress_into<float>(std::span<const std::uint8_t>,
                                     const Shape&, std::span<float>);
template void decompress_into<double>(std::span<const std::uint8_t>,
                                      const Shape&, std::span<double>);

template <typename T>
RoundTripStats measure_roundtrip(const NdArray<T>& data,
                                 const CompressionConfig& config) {
  RoundTripStats stats;
  Timer ct;
  const Bytes blob = compress(data, config);
  stats.compress_seconds = ct.seconds();

  Timer dt;
  const NdArray<T> recon = decompress<T>(blob);
  stats.decompress_seconds = dt.seconds();

  stats.compressed_bytes = blob.size();
  stats.compression_ratio =
      static_cast<double>(data.byte_size()) / static_cast<double>(blob.size());
  stats.psnr_db = psnr<T>(data.values(), recon.values());
  stats.max_error = max_abs_error<T>(data.values(), recon.values());
  stats.abs_eb = resolve_abs_eb(data, config);
  return stats;
}

template RoundTripStats measure_roundtrip<float>(const NdArray<float>&,
                                                 const CompressionConfig&);
template RoundTripStats measure_roundtrip<double>(const NdArray<double>&,
                                                  const CompressionConfig&);

}  // namespace ocelot
