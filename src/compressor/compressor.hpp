#pragma once
// Error-bounded lossy compression of scientific arrays.
//
// Public entry points of the compressor library: compress an NdArray
// into a self-describing blob and decompress it back. The contract is
// the error-bound invariant: for the resolved absolute bound e,
// max |original[i] - decompressed[i]| <= e for all i.
//
// Dispatch goes through the backend table (see backend.hpp): the blob
// header names the backend by wire id, compress resolves
// config.backend by name, and the backend owns the payload. Blob
// layout: magic "OCZ1", dtype, backend wire id, resolved absolute eb,
// the varint parameter block (quantizer radius, anchor-stride cap,
// SZ2 block edge: the constants in config.hpp on write, the header's
// values on read), shape, then the backend's named sections. Blobs
// written with a non-default entropy stage (config.entropy !=
// "huffman", see codec/entropy.hpp) use magic "OCZ2" with the stage's
// wire id in one extra byte after the backend id; everything else is
// unchanged.

#include <cstdint>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/ndarray.hpp"
#include "compressor/config.hpp"

namespace ocelot {

/// Compresses `data` under `config`, streaming header and payload
/// sections straight into `out` — the zero-copy path: pointing the
/// sink at a pooled buffer or a container arena produces the blob with
/// no intermediate vectors. Throws InvalidArgument for empty arrays or
/// non-positive error bounds.
template <typename T>
void compress_into(const NdArray<T>& data, const CompressionConfig& config,
                   ByteSink& out);

/// Convenience wrapper returning a fresh buffer.
template <typename T>
Bytes compress(const NdArray<T>& data, const CompressionConfig& config);

/// Decompresses a blob produced by compress<T>. Throws CorruptStream on
/// malformed input and InvalidArgument if the blob's dtype is not T.
template <typename T>
NdArray<T> decompress(std::span<const std::uint8_t> blob);

/// Like decompress, but builds the output array on `storage` (resized
/// to the blob's shape, capacity reused). The pooled block codec hands
/// the vector back to its ScratchPool afterwards via
/// NdArray::release(). Exception-safe for pooling: when decoding
/// throws, the storage is moved back into `storage`, so a ScratchLease
/// holding it still returns it to the pool.
template <typename T>
NdArray<T> decompress_reusing(std::span<const std::uint8_t> blob,
                              std::vector<T>& storage);

/// Metadata recovered from a blob without decompressing the payload.
struct BlobInfo {
  bool is_double = false;
  std::string backend;          ///< table name resolved from the wire id
  std::uint8_t backend_id = 0;  ///< raw wire id from the header
  std::string entropy;          ///< entropy-stage name ("huffman" for OCZ1)
  std::uint8_t entropy_id = 0;  ///< entropy-stage wire id
  double abs_eb = 0.0;
  Shape shape;
  std::size_t compressed_bytes = 0;
  std::size_t raw_bytes = 0;
};

/// Parses header fields only; resolves the backend and entropy-stage
/// names through their tables and throws CorruptStream for unknown
/// wire ids and implausible shapes.
BlobInfo inspect_blob(std::span<const std::uint8_t> blob);

/// Ceiling on the elements of a shape read from untrusted bytes (2^40
/// elements = 4 TB of floats): far beyond any real field, small enough
/// that Shape::size() cannot wrap.
inline constexpr std::uint64_t kMaxShapeElements = std::uint64_t{1} << 40;

/// Shape codec shared by the OCZ header and the OCB1 index: a rank
/// byte, then one varint per dimension.
void write_shape(ByteSink& out, const Shape& shape);

/// Reads the dimensions of a shape written by write_shape, whose rank
/// byte the caller has already consumed. Throws CorruptStream for a
/// rank outside 1-3, a zero dimension, or dimensions whose product
/// exceeds kMaxShapeElements.
Shape read_shape(BytesReader& in, int rank);

/// Convenience round-trip measurement used by tests, benches and the
/// predictor training loop.
struct RoundTripStats {
  double compression_ratio = 0.0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  double psnr_db = 0.0;
  double max_error = 0.0;
  double abs_eb = 0.0;
  std::size_t compressed_bytes = 0;
};

template <typename T>
RoundTripStats measure_roundtrip(const NdArray<T>& data,
                                 const CompressionConfig& config);

/// Resolves a possibly-relative error bound against the data range.
template <typename T>
double resolve_abs_eb(const NdArray<T>& data, const CompressionConfig& config);

}  // namespace ocelot
