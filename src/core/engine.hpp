#pragma once
// Engine: the one compression facade every front end calls.
//
// Three frontends share one hot path: the CLI (`ocelot compress` /
// `advise` / `stats`), the stdin/stdout chunked streaming mode, and
// the ocelotd daemon (src/server/). Before this facade each of them
// re-assembled the same pipeline by hand — CompressionConfig parsing,
// adaptive-advisor wiring, block-vs-single-shot dispatch, worker-count
// resolution — three near-duplicates that could (and did) drift. Now
// they all build an EngineRequest (usually via
// parse_compression_options on a shared OptionSet) and hand it to
// Engine, so a request compressed over a daemon socket produces bytes
// identical to the same request on the command line.
//
// Dispatch:
//   adaptive          -> block-parallel container (OCB1) through an
//                        AdvisorPolicy (per-block backend / bound)
//   fixed             -> single-shot OCZ blob via compress_into
//   compress_stream   -> chunked OCB1 from a byte stream (stream_codec)
//   compress_fields   -> batch path (whole-file or blocked) used by
//                        the local pipeline
// All paths keep the container-bytes-deterministic guarantee: output
// does not depend on the worker count.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ndarray.hpp"
#include "common/options.hpp"
#include "compressor/config.hpp"
#include "core/adaptive.hpp"
#include "core/stream_codec.hpp"
#include "exec/parallel_codec.hpp"

namespace ocelot {

/// Everything a front end needs to say about one compression run.
struct EngineRequest {
  CompressionConfig config;
  /// Online advisor picks each block's backend / error bound; output
  /// becomes an OCB1 container instead of a bare OCZ blob.
  bool adaptive = false;
  AdaptiveOptions adaptive_options;
  /// Slabs per block on the blocked paths (0 = the per-path default:
  /// default_block_slabs for adaptive/streaming, whole-file for the
  /// batch path).
  std::size_t block_slabs = 0;
  /// Worker threads; 0 resolves to every hardware thread. Never
  /// affects the emitted bytes.
  std::size_t workers = 0;
};

/// Which knobs a front end exposes; error messages match the CLI's.
struct CompressionOptionRules {
  /// Accept policy=fixed|adaptive (compress/stats do; advise, which is
  /// always adaptive, rejects the key as unknown).
  bool allow_policy = true;
  /// Treat the request as adaptive without an explicit policy key.
  bool default_adaptive = false;
  /// Advisor knobs (backends/entropy_stages/eb_scales/min_psnr/stride)
  /// and workers require policy=adaptive (the `compress` contract).
  bool advisor_knobs_need_policy = false;
};

/// Consumes the shared compression keys from `options`: eb, mode,
/// backend (alias pipeline, later-one-wins), entropy, block_slabs,
/// workers, policy, and the advisor knobs. Leaves unrelated keys for
/// the caller, who finishes with options.reject_unknown(...). The
/// default bound is value-range-relative 1e-3, the CLI's historical
/// default, so daemon requests match CLI invocations knob for knob.
EngineRequest parse_compression_options(
    OptionSet& options, const CompressionOptionRules& rules = {});

/// Resolves a backend name through the backend table ("sz3" stays a
/// convenience alias for the SZ3 default); throws on unknown names.
std::string resolve_backend_name(const std::string& name);

/// Resolves an entropy-stage name through the stage table.
std::string resolve_entropy_name(const std::string& name);

/// Outcome of one Engine::compress call.
struct EngineResult {
  std::size_t raw_bytes = 0;
  std::size_t compressed_bytes = 0;
  std::size_t blocks = 1;   ///< OCB1 block count; 1 for a bare blob
  double abs_eb = 0.0;      ///< bound resolved against the field
  double wall_seconds = 0.0;
  /// Backend/stage mix of an adaptive run (empty for fixed runs).
  AdaptiveSummary adaptive;

  [[nodiscard]] double ratio() const {
    return compressed_bytes > 0
               ? static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes)
               : 0.0;
  }
};

class Engine {
 public:
  Engine() = default;

  /// Process-wide instance shared by the CLI and the daemon (the
  /// engine itself is stateless; the shared instance exists so all
  /// frontends are visibly calling the same object).
  static Engine& shared();

  /// Compresses one field per `request`, appending the blob/container
  /// to `out`. `policy` overrides the internally constructed
  /// AdvisorPolicy so callers (ocelot advise) can read the decision
  /// log afterwards; it is only consulted on adaptive requests.
  EngineResult compress(const FloatArray& field, const EngineRequest& request,
                        Bytes& out, AdvisorPolicy* policy = nullptr) const;

  /// Decompresses a bare OCZ blob or an OCB1 container (by magic).
  /// `workers` only affects wall time, never the values.
  [[nodiscard]] FloatArray decompress(std::span<const std::uint8_t> blob,
                                      std::size_t workers = 0) const;

  /// Batch path (the local pipeline): whole-file tasks when
  /// request.block_slabs == 0 and not adaptive, blocked otherwise.
  /// `adaptive_out`, when non-null, receives the advisor summary.
  ParallelCompressResult compress_fields(
      const std::vector<FloatArray>& fields, const EngineRequest& request,
      AdaptiveSummary* adaptive_out = nullptr) const;

  /// Chunked streaming compress (raw float32 in, OCB1 out);
  /// `slab_dims` are the trailing dimensions of one slab.
  StreamStats compress_stream(std::istream& in, std::ostream& out,
                              const EngineRequest& request,
                              const std::vector<std::size_t>& slab_dims) const;

  /// 0 -> every hardware thread (the emitted bytes never depend on it).
  [[nodiscard]] static std::size_t resolve_workers(std::size_t requested);
};

}  // namespace ocelot
