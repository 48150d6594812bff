#pragma once
// Per-block compression-policy hook for the block-parallel executor.
//
// The block mode of parallel_compress can delegate the choice of
// compressor backend, entropy stage, and error bound to a BlockPolicy,
// block by block (the decision is a whole CompressionConfig).
// The executor drives the policy in fixed-size waves of tasks, with a
// strict phase protocol chosen so that decisions are deterministic no
// matter how many worker threads run:
//
//   1. probe()   — concurrent, one call per task in the wave: cheap
//                  feature sampling against the block's data. Results
//                  are stored by task index, so concurrent calls never
//                  race.
//   2. decide()  — sequential: pick the block's backend + absolute
//                  error bound from the probed features and everything
//                  observed so far.
//   3. (compress)— concurrent: the executor compresses each block
//                  under its decided config.
//   4. observe() — sequential, same order as decide(): the measured
//                  outcome feeds back into the policy, so blocks in
//                  later waves (and later fields in the same batch)
//                  benefit from what earlier blocks actually achieved.
//
// Tasks are processed in calibration-first order, not ascending task
// index: the first wave holds exactly every field's block 0 (so
// per-field calibration feedback lands before any other block of that
// field is decided), and the remaining tasks follow in field-major
// order, chunked into kPolicyWaveTasks-sized waves. Within a wave the two
// sequential phases run in that same order. The order is a pure
// function of the task list — never of the worker count.
//
// Because every policy-state mutation happens in the two sequential
// phases, and wave boundaries depend only on the task list (never on
// the worker count), a given input + policy configuration always
// yields byte-identical containers across thread counts.
//
// core/adaptive.hpp provides the production implementation (the online
// adaptive advisor); this header keeps the executor free of any
// dependency on the feature/predictor layers.

#include <cstddef>
#include <cstdint>

#include "common/ndarray.hpp"
#include "compressor/config.hpp"

namespace ocelot {

/// Tasks per decision wave. Smaller waves land duel feedback sooner
/// (fewer blocks compressed under a not-yet-corrected leader) at the
/// cost of more phase barriers; 8 keeps the advisor's calibration
/// duels within the first one or two waves. Never depends on the
/// worker count.
inline constexpr std::size_t kPolicyWaveTasks = 8;

/// Identifies one block task of a batch compression run.
struct BlockContext {
  std::size_t field = 0;        ///< index of the field in the batch
  std::size_t block = 0;        ///< block index within the field
  std::size_t task = 0;         ///< global task index (field-major order)
  double field_abs_eb = 0.0;    ///< bound resolved against the full field
  std::size_t field_bytes = 0;  ///< raw bytes of the whole field
  std::size_t block_bytes = 0;  ///< raw bytes of this block
};

/// One per-block decision: the exact configuration the block
/// compresses under (eb_mode is always kAbsolute, and config.eb must
/// not exceed ctx.field_abs_eb so the field-level bound holds), plus
/// the prediction that justified it.
///
/// A decision may nominate a challenger: the executor then compresses
/// the block under both configurations and keeps the smaller payload
/// (ties keep the primary), so an exploration step can never cost
/// ratio — only the challenger's compute time. Both outcomes reach
/// observe(), which is how the policy buys unbiased block-granularity
/// observations of candidates it would not otherwise pick.
struct BlockDecision {
  CompressionConfig config;
  std::uint8_t backend_id = 0;   ///< wire id of config.backend
  double predicted_ratio = 0.0;  ///< policy's ratio estimate
  bool has_challenger = false;
  CompressionConfig challenger;
  std::uint8_t challenger_id = 0;
};

/// Measured outcome of one compressed block.
struct BlockOutcome {
  std::size_t raw_bytes = 0;
  std::size_t primary_bytes = 0;     ///< decision.config's payload size
  std::size_t challenger_bytes = 0;  ///< 0 when no challenger ran
  bool kept_challenger = false;      ///< challenger payload won the block
};

/// Per-block backend / error-bound selection hook (see file comment
/// for the phase protocol and its determinism contract).
class BlockPolicy {
 public:
  virtual ~BlockPolicy() = default;

  /// Called once before any probe, with the batch geometry and the
  /// run's base configuration (the policy overrides backend and error
  /// bound but should inherit the remaining tunables from it).
  virtual void begin(std::size_t n_fields, std::size_t n_tasks,
                     const CompressionConfig& base) = 0;

  /// Whether probe() should run for this block. Returning false lets
  /// the executor skip materializing the block a first time when the
  /// policy has nothing to measure on it (e.g. no constraint or model
  /// consumes the features). Must be deterministic in ctx alone.
  [[nodiscard]] virtual bool wants_probe(const BlockContext& ctx) const {
    (void)ctx;
    return true;
  }

  /// Concurrent feature sampling for one block (store by ctx.task).
  virtual void probe(const BlockContext& ctx, const FloatArray& block) = 0;

  /// Sequential decision for one block (calibration-first order; see
  /// the file comment).
  virtual BlockDecision decide(const BlockContext& ctx) = 0;

  /// Sequential feedback after the block compressed (same order as
  /// decide()).
  virtual void observe(const BlockContext& ctx, const BlockDecision& decision,
                       const BlockOutcome& outcome) = 0;
};

}  // namespace ocelot
