#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "codec/entropy.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "io/block_container.hpp"

namespace ocelot {

std::string resolve_backend_name(const std::string& name) {
  const std::string resolved = name == "sz3" ? "sz3-interp" : name;
  (void)backend_by_name(resolved);  // throws if unknown
  return resolved;
}

std::string resolve_entropy_name(const std::string& name) {
  return entropy_stage_by_name(name).name;  // throws if unknown
}

EngineRequest parse_compression_options(OptionSet& options,
                                        const CompressionOptionRules& rules) {
  EngineRequest request;
  request.config.eb_mode = EbMode::kValueRangeRel;

  // Knobs that imply policy=adaptive on frontends that enforce it
  // (checked before consumption so the getters below can run freely).
  const bool advisor_knob_given =
      options.has("backends") || options.has("entropy_stages") ||
      options.has("eb_scales") || options.has("min_psnr") ||
      options.has("stride") || options.has("workers");

  request.config.eb = options.get_double("eb", request.config.eb);
  const std::string mode =
      options.get_choice("mode", {"abs", "rel"}, "rel", "eb mode");
  request.config.eb_mode =
      mode == "abs" ? EbMode::kAbsolute : EbMode::kValueRangeRel;

  // backend with "pipeline" as an alias; when both appear the one given
  // later wins, matching the CLI's historical in-order processing.
  const auto backend_at = options.index_of("backend");
  const auto pipeline_at = options.index_of("pipeline");
  const auto backend_v = options.take("backend");
  const auto pipeline_v = options.take("pipeline");
  if (backend_v.has_value() || pipeline_v.has_value()) {
    const bool use_pipeline =
        pipeline_v.has_value() &&
        (!backend_v.has_value() || *pipeline_at > *backend_at);
    request.config.backend =
        resolve_backend_name(use_pipeline ? *pipeline_v : *backend_v);
  }
  if (const auto v = options.take("entropy")) {
    request.config.entropy = resolve_entropy_name(*v);
  }

  request.adaptive = rules.default_adaptive;
  if (rules.allow_policy) {
    const std::string policy = options.get_choice(
        "policy", {"fixed", "adaptive"},
        rules.default_adaptive ? "adaptive" : "fixed");
    request.adaptive = policy == "adaptive";
  }

  request.block_slabs = options.get_count("block_slabs", 0);
  request.workers = options.get_count("workers", 0);

  if (options.has("backends")) {
    request.adaptive_options.backends.clear();
    for (const std::string& name : options.get_list("backends")) {
      request.adaptive_options.backends.push_back(resolve_backend_name(name));
    }
  }
  if (options.has("entropy_stages")) {
    request.adaptive_options.entropy_stages.clear();
    for (const std::string& name : options.get_list("entropy_stages")) {
      request.adaptive_options.entropy_stages.push_back(
          resolve_entropy_name(name));
    }
  }
  if (options.has("eb_scales")) {
    request.adaptive_options.eb_scales.clear();
    for (const std::string& part : options.get_list("eb_scales")) {
      request.adaptive_options.eb_scales.push_back(
          parse_double_option("eb_scales", part));
    }
  }
  request.adaptive_options.min_psnr_db =
      options.get_double("min_psnr", request.adaptive_options.min_psnr_db);
  request.adaptive_options.sample_stride =
      options.get_count("stride", request.adaptive_options.sample_stride);

  if (rules.advisor_knobs_need_policy && !request.adaptive &&
      advisor_knob_given) {
    throw InvalidArgument(
        "backends/entropy_stages/eb_scales/min_psnr/stride/workers need "
        "policy=adaptive");
  }
  return request;
}

Engine& Engine::shared() {
  static Engine engine;
  return engine;
}

std::size_t Engine::resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 4;
}

EngineResult Engine::compress(const FloatArray& field,
                              const EngineRequest& request, Bytes& out,
                              AdvisorPolicy* policy) const {
  EngineResult result;
  result.raw_bytes = field.byte_size();
  result.abs_eb = resolve_abs_eb(field, request.config);
  // The codec gets the resolved bound as an absolute-mode config, so
  // the field is scanned once. eb_mode is not serialized: the bytes are
  // those of the relative request.
  CompressionConfig config = request.config;
  config.eb_mode = EbMode::kAbsolute;
  config.eb = result.abs_eb;

  if (request.adaptive) {
    const std::size_t block_slabs =
        request.block_slabs > 0
            ? request.block_slabs
            : default_block_slabs(field.shape().dim(1) * field.shape().dim(2));
    AdvisorPolicy local(request.adaptive_options);
    AdvisorPolicy* active = policy != nullptr ? policy : &local;
    const BlockCompressResult r =
        block_compress(field, config, resolve_workers(request.workers),
                       block_slabs, active);
    out.insert(out.end(), r.container.begin(), r.container.end());
    result.compressed_bytes = r.container.size();
    result.blocks = r.n_blocks;
    result.wall_seconds = r.wall_seconds;
    result.adaptive = active->summary();
    return result;
  }

  Timer timer;
  const std::size_t before = out.size();
  ByteSink sink(out);
  compress_into(field, config, sink);
  result.compressed_bytes = out.size() - before;
  result.blocks = 1;
  result.wall_seconds = timer.seconds();
  return result;
}

FloatArray Engine::decompress(std::span<const std::uint8_t> blob,
                              std::size_t workers) const {
  if (is_block_container(blob)) {
    return block_decompress(blob, resolve_workers(workers)).field;
  }
  return ocelot::decompress<float>(blob);
}

ParallelCompressResult Engine::compress_fields(
    const std::vector<FloatArray>& fields, const EngineRequest& request,
    AdaptiveSummary* adaptive_out) const {
  if (request.adaptive) {
    // One block size serves every field: the default of the field with
    // the smallest slabs, so no field's blocks fall under the minimum.
    std::size_t block_slabs = request.block_slabs;
    if (block_slabs == 0) {
      std::size_t slab_values = std::numeric_limits<std::size_t>::max();
      for (const FloatArray& f : fields) {
        slab_values =
            std::min(slab_values, f.shape().dim(1) * f.shape().dim(2));
      }
      block_slabs = default_block_slabs(slab_values);
    }
    AdvisorPolicy policy(request.adaptive_options);
    ParallelCompressResult r =
        parallel_compress(fields, request.config,
                          resolve_workers(request.workers), block_slabs,
                          &policy);
    if (adaptive_out != nullptr) *adaptive_out = policy.summary();
    return r;
  }
  return parallel_compress(fields, request.config,
                           resolve_workers(request.workers),
                           request.block_slabs);
}

StreamStats Engine::compress_stream(
    std::istream& in, std::ostream& out, const EngineRequest& request,
    const std::vector<std::size_t>& slab_dims) const {
  StreamCompressConfig config;
  config.compression = request.config;
  config.slab_dims = slab_dims;
  config.block_slabs = request.block_slabs;
  return stream_compress(in, out, config);
}

}  // namespace ocelot
