#include "exec/parallel_codec.hpp"

#include <algorithm>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "compressor/compressor.hpp"
#include "exec/thread_pool.hpp"
#include "io/block_container.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

/// One block task: (field, block span) plus the field's pre-resolved
/// absolute bound so every block honors the full-field error bound.
struct BlockTask {
  std::size_t field = 0;
  std::size_t block = 0;
  BlockSpan span;
};

/// Runs `fn` against a pooled copy of the block's contiguous slab
/// range. The slice storage returns to the pool even when `fn` throws.
template <typename Fn>
void with_block_copy(const FloatArray& field, const BlockSpan& span,
                     Fn&& fn) {
  const Shape shape = block_shape(field.shape(), span);
  const std::size_t slab_elems =
      field.shape().dim(1) * field.shape().dim(2);
  const std::size_t begin = span.slab_begin * slab_elems;
  auto& pool = ScratchPool<float>::shared();
  std::vector<float> data = pool.acquire(shape.size());
  data.assign(
      field.values().begin() + static_cast<std::ptrdiff_t>(begin),
      field.values().begin() +
          static_cast<std::ptrdiff_t>(begin + shape.size()));
  FloatArray block(shape, std::move(data));
  try {
    fn(block);
  } catch (...) {
    pool.release(block.release());
    throw;
  }
  pool.release(block.release());
}

/// Compresses the block's contiguous slab range through pooled slice
/// scratch, streaming the blob into `sink`.
void compress_block_slice(const FloatArray& field, const BlockSpan& span,
                          const CompressionConfig& config, ByteSink& sink) {
  with_block_copy(field, span, [&](const FloatArray& block) {
    compress_into(block, config, sink);
  });
}

ParallelCompressResult blocked_compress_impl(
    std::span<const FloatArray> fields, const CompressionConfig& config,
    std::size_t workers, std::size_t block_slabs, BlockPolicy* policy) {
  ParallelCompressResult result;
  result.blobs.resize(fields.size());

  // Per-field block plans and pre-resolved absolute bounds, then one
  // flat task list so every core stays busy even for a single field.
  // The timer covers the planning scan too: the whole-file mode pays
  // its bound resolution inside compress(), so both modes' walls
  // measure the same work.
  Timer timer;
  std::vector<std::vector<PooledBuffer>> block_blobs(fields.size());
  std::vector<double> abs_ebs(fields.size());
  std::vector<BlockTask> tasks;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    abs_ebs[f] = resolve_abs_eb(fields[f], config);
    const auto spans = plan_blocks(fields[f].shape().dim(0), block_slabs);
    block_blobs[f].resize(spans.size());
    tasks.reserve(tasks.size() + spans.size());
    for (std::size_t b = 0; b < spans.size(); ++b) {
      tasks.push_back({f, b, spans[b]});
    }
  }
  result.task_count = tasks.size();

  // Workers compress slabs into pooled buffers: slab scratch and blob
  // storage both cycle through the shared pools, so steady state runs
  // with no fresh allocation per block. The RAII lease keeps a
  // throwing task from stranding its buffer.
  const auto context_of = [&](std::size_t t) {
    const FloatArray& field = fields[tasks[t].field];
    const std::size_t slab_elems = field.shape().dim(1) * field.shape().dim(2);
    return BlockContext{tasks[t].field,
                        tasks[t].block,
                        t,
                        abs_ebs[tasks[t].field],
                        field.byte_size(),
                        tasks[t].span.slab_count * slab_elems * sizeof(float)};
  };
  const auto compress_task = [&](std::size_t t,
                                 const CompressionConfig& block_config) {
    OCELOT_SPAN("compress.block");
    const BlockTask& task = tasks[t];
    PooledBuffer blob(BufferPool::shared());
    ByteSink sink(*blob);
    compress_block_slice(fields[task.field], task.span, block_config, sink);
    OCELOT_COUNT("block.compressed_bytes", blob->size());
    OCELOT_HIST("block.compressed_bytes", blob->size());
    block_blobs[task.field][task.block] = std::move(blob);
  };
  const auto check_bound = [&](std::size_t t, const CompressionConfig& c) {
    require(c.eb_mode == EbMode::kAbsolute && c.eb > 0.0 &&
                c.eb <= abs_ebs[tasks[t].field] * (1.0 + 1e-12),
            "block policy: decision must carry an absolute bound no "
            "looser than the field's");
  };

  if (policy == nullptr) {
    parallel_for(tasks.size(), workers, [&](std::size_t t) {
      CompressionConfig block_config = config;
      block_config.eb_mode = EbMode::kAbsolute;
      block_config.eb = abs_ebs[tasks[t].field];
      compress_task(t, block_config);
    });
  } else {
    // Policy mode runs in waves: concurrent probes, sequential
    // decisions, concurrent compression, sequential feedback. Wave
    // geometry depends only on the task list, so the emitted bytes are
    // identical for every worker count (see block_policy.hpp).
    policy->begin(fields.size(), tasks.size(), config);
    std::vector<BlockDecision> decisions(tasks.size());
    std::vector<BlockOutcome> outcomes(tasks.size());
    // Calibration-first order: every field's block 0 goes into the
    // first wave, so its calibration probe and duel feedback land
    // before any other block of that field is decided — without this,
    // a field small enough to fit in one wave could never benefit
    // from its own calibration. The order depends only on the task
    // list, preserving the cross-worker determinism contract;
    // container assembly is by (field, block), so output bytes are
    // unaffected by processing order.
    std::vector<std::size_t> order;
    order.reserve(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks[t].block == 0) order.push_back(t);
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks[t].block != 0) order.push_back(t);
    }
    const std::size_t calibration_tasks = fields.size();  // one block 0 each
    for (std::size_t w0 = 0; w0 < tasks.size();) {
      std::size_t w1 = std::min(tasks.size(), w0 + kPolicyWaveTasks);
      // The calibration wave never mixes with regular blocks: its
      // observations must land before any non-first block is decided.
      if (w0 < calibration_tasks) w1 = std::min(w1, calibration_tasks);
      parallel_for(w1 - w0, workers, [&](std::size_t i) {
        const std::size_t t = order[w0 + i];
        const BlockContext ctx = context_of(t);
        if (!policy->wants_probe(ctx)) return;
        OCELOT_SPAN("advisor.probe");
        OCELOT_COUNT("advisor.probes", 1);
        with_block_copy(
            fields[tasks[t].field], tasks[t].span,
            [&](const FloatArray& block) { policy->probe(ctx, block); });
      });
      {
        OCELOT_SPAN("advisor.decide");
        for (std::size_t w = w0; w < w1; ++w) {
          const std::size_t t = order[w];
          decisions[t] = policy->decide(context_of(t));
          OCELOT_COUNT("advisor.decisions", 1);
          check_bound(t, decisions[t].config);
          if (decisions[t].has_challenger) {
            OCELOT_COUNT("advisor.challengers", 1);
            check_bound(t, decisions[t].challenger);
          }
        }
      }
      parallel_for(w1 - w0, workers, [&](std::size_t i) {
        const std::size_t t = order[w0 + i];
        const BlockTask& task = tasks[t];
        const std::size_t slab_elems =
            fields[task.field].shape().dim(1) *
            fields[task.field].shape().dim(2);
        BlockOutcome& outcome = outcomes[t];
        outcome = {};
        outcome.raw_bytes = task.span.slab_count * slab_elems * sizeof(float);
        compress_task(t, decisions[t].config);
        outcome.primary_bytes = block_blobs[task.field][task.block]->size();
        if (decisions[t].has_challenger) {
          // Keep-best exploration: the challenger's payload replaces
          // the primary's only when strictly smaller, so exploring can
          // never cost ratio (and the comparison is byte-deterministic).
          PooledBuffer primary = std::move(block_blobs[task.field][task.block]);
          compress_task(t, decisions[t].challenger);
          outcome.challenger_bytes =
              block_blobs[task.field][task.block]->size();
          outcome.kept_challenger =
              outcome.challenger_bytes < outcome.primary_bytes;
          if (outcome.kept_challenger) {
            OCELOT_COUNT("advisor.challenger_wins", 1);
          } else {
            block_blobs[task.field][task.block] = std::move(primary);
          }
        }
      });
      {
        OCELOT_SPAN("advisor.observe");
        for (std::size_t w = w0; w < w1; ++w) {
          const std::size_t t = order[w];
          policy->observe(context_of(t), decisions[t], outcomes[t]);
        }
      }
      w0 = w1;
    }
  }

  // Streaming assembly: payloads append into one arena per field; the
  // pooled block buffers are recycled as they are consumed.
  OCELOT_SPAN("container.finish");
  for (std::size_t f = 0; f < fields.size(); ++f) {
    BlockContainerWriter writer(block_slabs);
    std::size_t payload_total = 0;
    for (PooledBuffer& blob : block_blobs[f]) payload_total += blob->size();
    writer.reserve_payload(payload_total, block_blobs[f].size());
    for (PooledBuffer& blob : block_blobs[f]) {
      writer.append_block(*blob);
      blob.reset();
    }
    result.blobs[f] = writer.finish(fields[f].shape());
  }
  result.wall_seconds = timer.seconds();
  return result;
}

/// Decompresses one container's blocks into `out` (pre-allocated with
/// the container's full shape); `block` indexes the container's plan.
void decode_block_into(std::span<const std::uint8_t> container,
                       const BlockContainerInfo& info, std::size_t block,
                       const BlockSpan& span, FloatArray& out) {
  OCELOT_SPAN("decompress.block");
  const std::span<const std::uint8_t> payload =
      block_payload(container, info, block);
  // The block's own header must match the plan before decode sizes
  // anything from it.
  if (!(inspect_blob(payload).shape == block_shape(info.shape, span)))
    throw CorruptStream("block container: block shape does not match the plan");
  // The lease survives any decode throw: decompress_reusing restores
  // the storage on failure and the decoded array hands it back below,
  // so corrupt blocks cannot drain the pool.
  ScratchLease<float> lease(ScratchPool<float>::shared());
  FloatArray decoded = decompress_reusing<float>(payload, *lease);
  const std::size_t slab_elems = info.shape.dim(1) * info.shape.dim(2);
  std::memcpy(out.values().data() + span.slab_begin * slab_elems,
              decoded.values().data(), decoded.byte_size());
  *lease = decoded.release();
}

}  // namespace

ParallelCompressResult parallel_compress(
    const std::vector<FloatArray>& fields, const CompressionConfig& config,
    std::size_t workers, std::size_t block_slabs, BlockPolicy* policy) {
  require(policy == nullptr || block_slabs > 0,
          "parallel_compress: a block policy requires block mode");
  ParallelCompressResult result;
  if (block_slabs > 0) {
    result =
        blocked_compress_impl(fields, config, workers, block_slabs, policy);
  } else {
    result.blobs.resize(fields.size());
    result.task_count = fields.size();
    Timer timer;
    parallel_for(fields.size(), workers, [&](std::size_t i) {
      result.blobs[i] = compress(fields[i], config);
    });
    result.wall_seconds = timer.seconds();
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    result.total_raw_bytes += static_cast<double>(fields[i].byte_size());
    result.total_compressed_bytes +=
        static_cast<double>(result.blobs[i].size());
  }
  return result;
}

ParallelDecompressResult parallel_decompress(const std::vector<Bytes>& blobs,
                                             std::size_t workers) {
  std::vector<std::span<const std::uint8_t>> views;
  views.reserve(blobs.size());
  for (const auto& blob : blobs) views.emplace_back(blob);
  return parallel_decompress(views, workers);
}

ParallelDecompressResult parallel_decompress(
    const std::vector<std::span<const std::uint8_t>>& blobs,
    std::size_t workers) {
  ParallelDecompressResult result;
  result.fields.resize(blobs.size());

  // Flatten: whole-file blobs are one task; containers contribute one
  // task per block, writing into a pre-allocated output array.
  struct DecodeTask {
    std::size_t blob = 0;
    std::size_t block = 0;   ///< meaningful iff blocked
    bool blocked = false;
    BlockSpan span;
  };
  std::vector<BlockContainerInfo> infos(blobs.size());
  std::vector<DecodeTask> tasks;
  Timer timer;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    if (is_block_container(blobs[i])) {
      infos[i] = read_block_index(blobs[i]);
      result.fields[i] = FloatArray(infos[i].shape);
      const auto spans =
          plan_blocks(infos[i].shape.dim(0), infos[i].block_slabs);
      for (std::size_t b = 0; b < spans.size(); ++b) {
        tasks.push_back({i, b, true, spans[b]});
      }
    } else {
      tasks.push_back({i, 0, false, {}});
    }
  }
  parallel_for(tasks.size(), workers, [&](std::size_t t) {
    const DecodeTask& task = tasks[t];
    if (task.blocked) {
      decode_block_into(blobs[task.blob], infos[task.blob], task.block,
                        task.span, result.fields[task.blob]);
    } else {
      result.fields[task.blob] = decompress<float>(blobs[task.blob]);
    }
  });
  result.wall_seconds = timer.seconds();
  return result;
}

BlockCompressResult block_compress(const FloatArray& field,
                                   const CompressionConfig& config,
                                   std::size_t workers,
                                   std::size_t block_slabs,
                                   BlockPolicy* policy) {
  require(block_slabs > 0, "block_compress: zero block size");
  ParallelCompressResult r =
      blocked_compress_impl(std::span<const FloatArray>(&field, 1), config,
                            workers, block_slabs, policy);
  BlockCompressResult result;
  result.container = std::move(r.blobs.front());
  result.wall_seconds = r.wall_seconds;
  result.n_blocks = r.task_count;
  result.raw_bytes = static_cast<double>(field.byte_size());
  return result;
}

BlockDecompressResult block_decompress(
    std::span<const std::uint8_t> container, std::size_t workers) {
  ParallelDecompressResult r = parallel_decompress({container}, workers);
  BlockDecompressResult result;
  result.field = std::move(r.fields.front());
  result.wall_seconds = r.wall_seconds;
  return result;
}

}  // namespace ocelot
