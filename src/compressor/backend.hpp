#pragma once
// The compressor backends: one fixed table, indexed by wire id.
//
// compress<T>/decompress<T>/inspect_blob resolve a backend by name
// (when writing) or by the wire id stored in the OCZ header (when
// reading), and the backend's codec owns the payload encode/decode
// against the shared section container, the uniform quantizer, and
// the entropy stage (codec/entropy.hpp, "huffman" by default).
//
// The set is closed by the wire format: an id, once written, names
// the same family forever, and the quality model keys its
// compressor-type feature on it. So the table in sz_backends.cpp is
// the one place an id is assigned:
//
//   0 lorenzo   1 sz2   2 sz3-interp   3 lorenzo2   4 multigrid
//
// Ids 0-3 are the legacy Pipeline enum values. Adding a family =
// implement CompressorBackend (usually via TypedBackend, to get both
// dtypes from one template) and append a row at the next wire id. The
// advisor, the CLI and the benches enumerate the table. See
// CONTRIBUTING.md for the full recipe.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codec/lossless.hpp"
#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/ndarray.hpp"
#include "compressor/config.hpp"

namespace ocelot {

/// Parsed blob header, handed to backend decode. Layout (unchanged
/// since the enum era, so old blobs parse bit-exactly): magic "OCZ1",
/// dtype u8, backend wire id u8, resolved absolute eb f64, then the
/// varint parameter block and the shape. Blobs written with a
/// non-default entropy stage use magic "OCZ2" and carry the stage's
/// wire id in one extra byte between the backend id and the eb.
struct BlobHeader {
  std::uint8_t dtype = 0;
  std::uint8_t backend_id = 0;
  /// Entropy-stage wire id (0 for OCZ1 blobs — the legacy chain).
  std::uint8_t entropy_id = 0;
  double abs_eb = 0.0;
  std::uint32_t quant_radius = 0;
  std::size_t anchor_stride = 0;
  std::size_t block_size = 0;
  Shape shape;
};

/// Named payload sections, streamed straight into the output sink in
/// insertion order. The wire layout (varint section count, then tag +
/// length-prefixed payload per section) is identical to the old
/// buffered writer, so blobs stay bit-exact: the count byte is
/// reserved up front and patched by finish() (every in-tree backend
/// stays far below 128 sections; the rare wider varint inserts the
/// extra bytes).
class SectionWriter {
 public:
  explicit SectionWriter(ByteSink& out)
      : out_(&out), count_offset_(out.size()) {
    out.put(std::uint8_t{0});  // count placeholder, patched in finish()
  }

  /// Appends a section with an already-materialized payload.
  void add(const std::string& tag, std::span<const std::uint8_t> bytes) {
    require(!finished_, "SectionWriter: add after finish");
    out_->put_string(tag);
    out_->put_blob(bytes);
    ++count_;
  }

  /// Appends a section whose payload `fn(ByteSink&)` streams into
  /// pooled scratch (capacity reused across sections and blocks), so
  /// steady-state section assembly allocates nothing fresh.
  template <typename Fn>
  void add_streamed(const std::string& tag, Fn&& fn) {
    PooledBuffer scratch(BufferPool::shared());
    ByteSink sink(*scratch);
    fn(sink);
    add(tag, *scratch);
  }

  /// Patches the section count into the reserved slot. Must be called
  /// exactly once, after the last add.
  void finish() {
    require(!finished_, "SectionWriter: finish called twice");
    finished_ = true;
    Bytes& buf = out_->target();
    if (count_ < 0x80) {
      buf[count_offset_] = static_cast<std::uint8_t>(count_);
      return;
    }
    BytesWriter varint;
    varint.put_varint(count_);
    const Bytes& v = varint.bytes();
    buf[count_offset_] = v[0];
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(count_offset_) + 1,
               v.begin() + 1, v.end());
  }

 private:
  ByteSink* out_;
  std::size_t count_offset_;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

/// Zero-copy section index: tags map to views into the blob being
/// decoded (which outlives the reader), so sections are never copied.
class SectionReader {
 public:
  explicit SectionReader(BytesReader& in) {
    const std::uint64_t count = in.get_varint();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string tag = in.get_string();
      sections_[tag] = in.get_blob();
    }
  }

  [[nodiscard]] std::span<const std::uint8_t> get(
      const std::string& tag) const {
    const auto it = sections_.find(tag);
    if (it == sections_.end())
      throw CorruptStream("blob: missing section " + tag);
    return it->second;
  }

  [[nodiscard]] bool has(const std::string& tag) const {
    return sections_.count(tag) > 0;
  }

 private:
  std::map<std::string, std::span<const std::uint8_t>> sections_;
};

/// Shared entropy stage for quantized-code sections. Every backend
/// funnels its quantizer output through these so ratios stay
/// comparable across families. pack_codes_hist resolves the stage from
/// CompressionConfig::entropy by name and writes a self-describing
/// packed section (the decoder dispatches on the section's leading
/// byte, so unpack needs no config). `hist` must be the exact
/// symbol-sorted histogram of `codes` (FusedQuant::hist_view), letting
/// the huffman stage skip its counting pass.
void pack_codes_hist(
    std::span<const std::uint32_t> codes,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
    const CompressionConfig& config, ByteSink& out);
/// `max_symbols` is the most codes the header allows the section to
/// hold (the shape size, for most sections). A section claiming more
/// throws CorruptStream before anything is allocated for it.
void unpack_codes_into(std::span<const std::uint8_t> packed,
                       std::size_t max_symbols,
                       std::vector<std::uint32_t>& out);

template <typename T>
void pack_raw_values(std::span<const T> values, LosslessBackend lossless,
                     ByteSink& out);
template <typename T>
void unpack_raw_values_into(std::span<const std::uint8_t> packed,
                            std::vector<T>& out);

/// A compression family: encodes an array into payload sections under
/// a resolved absolute error bound and decodes them back. The encode
/// and decode sides must reconstruct identical values (the quantizer
/// contract), and every backend honors max|x - x^| <= abs_eb.
class CompressorBackend {
 public:
  virtual ~CompressorBackend() = default;

  virtual void encode(const NdArray<float>& data, double abs_eb,
                      const CompressionConfig& config,
                      SectionWriter& out) const = 0;
  virtual void encode(const NdArray<double>& data, double abs_eb,
                      const CompressionConfig& config,
                      SectionWriter& out) const = 0;

  /// Decodes into `out`, pre-allocated with the header's shape.
  virtual void decode(const BlobHeader& header, const SectionReader& in,
                      NdArray<float>& out) const = 0;
  virtual void decode(const BlobHeader& header, const SectionReader& in,
                      NdArray<double>& out) const = 0;
};

/// CRTP helper: implement
///   template <typename T> void encode_impl(const NdArray<T>&, double,
///       const CompressionConfig&, SectionWriter&) const;
///   template <typename T> void decode_impl(const BlobHeader&,
///       const SectionReader&, NdArray<T>&) const;
/// once and get both dtype overloads.
template <typename Derived>
class TypedBackend : public CompressorBackend {
 public:
  void encode(const NdArray<float>& data, double abs_eb,
              const CompressionConfig& config,
              SectionWriter& out) const final {
    self().template encode_impl<float>(data, abs_eb, config, out);
  }
  void encode(const NdArray<double>& data, double abs_eb,
              const CompressionConfig& config,
              SectionWriter& out) const final {
    self().template encode_impl<double>(data, abs_eb, config, out);
  }
  void decode(const BlobHeader& header, const SectionReader& in,
              NdArray<float>& out) const final {
    self().template decode_impl<float>(header, in, out);
  }
  void decode(const BlobHeader& header, const SectionReader& in,
              NdArray<double>& out) const final {
    self().template decode_impl<double>(header, in, out);
  }

 private:
  [[nodiscard]] const Derived& self() const {
    return static_cast<const Derived&>(*this);
  }
};

/// One row of the backend table. Its index in backends() is its
/// wire id.
struct BackendEntry {
  std::uint8_t wire_id;
  std::string name;  ///< stable, lowercase, e.g. "sz3-interp"
  std::string description;
  const CompressorBackend& codec;
};

/// Every backend, in wire-id order. Built on first use from
/// function-local statics, so it is complete even for static
/// initializers in other translation units.
std::span<const BackendEntry> backends();

/// Lookup for writers: throws InvalidArgument (listing the names) when
/// `name` is unknown.
const BackendEntry& backend_by_name(std::string_view name);

/// Lookup for readers: throws CorruptStream when the wire id is
/// unknown (a foreign or corrupt blob).
const BackendEntry& backend_by_id(std::uint8_t id);

/// Names of all backends, in wire-id order.
std::vector<std::string> registered_backend_names();

}  // namespace ocelot
