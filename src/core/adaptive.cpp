#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "codec/entropy.hpp"
#include "common/error.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"

namespace ocelot {

namespace {

/// Ratio predictions are clamped to [1, kMaxRatio] in log2 space so a
/// degenerate feature sample (entropy ~ 0) cannot produce an estimate
/// that swamps every residual correction.
constexpr double kMaxLog2Ratio = 10.0;  // 1024x

/// Slab depth of the per-field calibration probe. One slab keeps the
/// probe's cost under a few percent even with a slow candidate
/// backend; the EW feedback sharpens whatever the short probe got
/// wrong.
constexpr std::size_t kProbeSlabs = 1;
/// Element cap on the calibration prefix (fields with huge slabs
/// would otherwise spend a visible fraction of their compression time
/// probing five backends on one slab).
constexpr std::size_t kProbeMaxElements = 2048;
/// Candidates whose calibration seed trails the leader's by more than
/// this many log2 (0.8 ~ 1.74x worse) are not worth a duel: the prefix
/// bias observed across families stays well below it.
constexpr double kDuelMarginLog2 = 0.8;
/// Weight of each new observation in the per-backend residual
/// correction. Early observations weigh more (simple average until
/// 1/count drops below this), so one true block observation
/// immediately outvotes a rough calibration probe.
constexpr double kLearningRate = 0.3;
/// Keep-best exploration budget as a fraction of each field's raw
/// bytes: early blocks may be compressed with one extra candidate
/// backend (the executor keeps the smaller payload, so exploring costs
/// time but never ratio) until every candidate has one true
/// block-granularity observation or the budget runs out. Fields with
/// few large blocks skip it automatically, because a single extra
/// block would blow the budget.
constexpr double kExploreBudget = 0.10;
/// Stirred into deterministic tie-breaking between candidates whose
/// adjusted predictions are bit-identical. Same input => byte-identical
/// output regardless of worker count.
constexpr std::uint64_t kTieBreakSeed = 0x0ce107;

/// splitmix64 step — deterministic tie-break ordering between
/// candidates whose adjusted predictions are bit-identical.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double clamp_log2_ratio(double log2_ratio) {
  return std::clamp(log2_ratio, 0.0, kMaxLog2Ratio);
}

/// Strided min/max of the block (the analytic PSNR estimate only
/// needs the value range, so it shares the feature sampling stride).
double sampled_range_of(const FloatArray& block, std::size_t stride) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  const auto vals = block.values();
  for (std::size_t i = 0; i < vals.size(); i += stride) {
    lo = std::min(lo, static_cast<double>(vals[i]));
    hi = std::max(hi, static_cast<double>(vals[i]));
  }
  return hi > lo ? hi - lo : 0.0;
}

/// First kProbeSlabs slowest-dimension slabs of the block
/// (row-truncated to at most kProbeMaxElements), copied out for the
/// calibration probe. Always a contiguous prefix of the block's
/// storage.
FloatArray slab_prefix(const FloatArray& block) {
  const Shape& shape = block.shape();
  std::size_t keep = std::min(kProbeSlabs, shape.dim(0));
  Shape prefix_shape =
      shape.rank() == 1   ? Shape(keep)
      : shape.rank() == 2 ? Shape(keep, shape.dim(1))
                          : Shape(keep, shape.dim(1), shape.dim(2));
  if (prefix_shape.size() > kProbeMaxElements) {
    // Trim to one slab, then cut rows (and, when a single row still
    // exceeds the cap, the row itself) until the cap holds.
    if (shape.rank() == 1) {
      prefix_shape = Shape(kProbeMaxElements);
    } else if (shape.rank() == 2) {
      prefix_shape = Shape(1, std::min(shape.dim(1), kProbeMaxElements));
    } else if (shape.dim(2) >= kProbeMaxElements) {
      prefix_shape = Shape(1, 1, kProbeMaxElements);
    } else {
      const std::size_t rows =
          std::max<std::size_t>(1, kProbeMaxElements / shape.dim(2));
      prefix_shape = Shape(1, std::min(shape.dim(1), rows), shape.dim(2));
    }
  }
  std::vector<float> data(
      block.values().begin(),
      block.values().begin() +
          static_cast<std::ptrdiff_t>(prefix_shape.size()));
  return FloatArray(prefix_shape, std::move(data));
}

}  // namespace

AdvisorPolicy::AdvisorPolicy(AdaptiveOptions options)
    : options_(std::move(options)) {
  require(!options_.eb_scales.empty(), "AdvisorPolicy: no eb scales");
  for (const double scale : options_.eb_scales) {
    require(scale > 0.0 && scale <= 1.0,
            "AdvisorPolicy: eb scales must lie in (0, 1]");
  }
  require(options_.sample_stride >= 1, "AdvisorPolicy: zero sample stride");

  std::vector<Candidate> candidate_backends;
  if (options_.backends.empty()) {
    for (const BackendEntry& backend : backends()) {
      candidate_backends.push_back({backend.name, backend.wire_id, "", 0});
    }
  } else {
    for (const std::string& name : options_.backends) {
      const BackendEntry& backend = backend_by_name(name);
      candidate_backends.push_back({backend.name, backend.wire_id, "", 0});
    }
  }
  require(!candidate_backends.empty(), "AdvisorPolicy: no candidate backends");
  // The candidate set is the backends x entropy-stages cross-product,
  // backend-major so same-backend candidates stay adjacent in the
  // decision tables. An empty stage list contributes one inherit-base
  // pseudo-stage (empty name, id 0), which keeps the candidate list —
  // and therefore every residual slot and tie-break hash — identical
  // to the stage-unaware advisor's.
  std::vector<Candidate> stages;
  if (options_.entropy_stages.empty()) {
    stages.push_back({});
  } else {
    for (const std::string& name : options_.entropy_stages) {
      const EntropyStageEntry& stage = entropy_stage_by_name(name);
      stages.push_back({"", 0, stage.name, stage.wire_id});
    }
  }
  for (const Candidate& backend : candidate_backends) {
    for (const Candidate& stage : stages) {
      candidates_.push_back(
          {backend.name, backend.wire_id, stage.entropy, stage.entropy_id});
    }
  }
  residuals_.assign(candidates_.size(), {});
}

const std::string& AdvisorPolicy::candidate_entropy(std::size_t c) const {
  return candidates_[c].entropy.empty() ? base_.entropy
                                        : candidates_[c].entropy;
}

std::uint8_t AdvisorPolicy::candidate_entropy_id(std::size_t c) const {
  return candidates_[c].entropy.empty() ? base_entropy_id_
                                        : candidates_[c].entropy_id;
}

void AdvisorPolicy::begin(std::size_t n_fields, std::size_t n_tasks,
                          const CompressionConfig& base) {
  base_ = base;
  base_entropy_id_ = entropy_stage_by_name(base.entropy).wire_id;
  probes_.assign(n_tasks, {});
  calibrations_.assign(n_fields, {});
  field_states_.assign(n_fields, {});
  pending_base_.assign(n_tasks, 0.0);
  pending_cand_.assign(n_tasks, 0);
  pending_challenger_base_.assign(n_tasks, 0.0);
  pending_challenger_cand_.assign(n_tasks, candidates_.size());
  log_slot_.assign(n_tasks, 0);
  // Residuals deliberately survive begin(): sequential batches of the
  // same campaign keep learning from each other.
}

bool AdvisorPolicy::needs_block_features() const {
  return options_.model != nullptr || options_.eb_scales.size() > 1 ||
         options_.min_psnr_db > 0.0;
}

bool AdvisorPolicy::wants_probe(const BlockContext& ctx) const {
  // Block 0 always probes (it hosts the field's calibration run);
  // other blocks only when their features can influence a decision.
  return needs_block_features() || ctx.block == 0;
}

void AdvisorPolicy::probe(const BlockContext& ctx, const FloatArray& block) {
  TaskProbe& probe = probes_[ctx.task];
  probe.elements = block.size();
  if (needs_block_features()) {
    // The value range only feeds the analytic PSNR estimate; skip the
    // scan when no quality constraint can consume it.
    probe.sampled_range =
        options_.min_psnr_db > 0.0 && options_.model == nullptr
            ? sampled_range_of(block, options_.sample_stride)
            : 0.0;
    probe.per_scale.resize(options_.eb_scales.size());
    for (std::size_t s = 0; s < options_.eb_scales.size(); ++s) {
      probe.per_scale[s] = extract_compressor_features(
          block, ctx.field_abs_eb * options_.eb_scales[s],
          options_.sample_stride);
    }
    if (options_.model != nullptr) {
      probe.df = extract_data_features(block);
    }
  }

  // Calibration probe, once per field on its first block: compress a
  // small slab prefix with every candidate so the residuals start from
  // observed ratios instead of cold predictions. Concurrent probes
  // write disjoint calibration slots (one field owns exactly one
  // block 0), so this is race-free.
  if (ctx.block == 0) {
    FieldCalibration& calib = calibrations_[ctx.field];
    calib.ran = true;
    calib.obs_log2.assign(candidates_.size(), 0.0);
    const FloatArray prefix = slab_prefix(block);
    const double raw = static_cast<double>(prefix.byte_size());
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      CompressionConfig config = base_;
      config.backend = candidates_[c].name;
      if (!candidates_[c].entropy.empty())
        config.entropy = candidates_[c].entropy;
      config.eb_mode = EbMode::kAbsolute;
      config.eb = ctx.field_abs_eb * options_.eb_scales.front();
      const Bytes blob = compress(prefix, config);
      calib.obs_log2[c] = std::log2(raw / static_cast<double>(blob.size()));
    }
  }
}

double AdvisorPolicy::base_log2_ratio(const TaskProbe& probe,
                                      std::size_t scale_index,
                                      const Candidate& candidate,
                                      double abs_eb) const {
  if (options_.model != nullptr) {
    const FeatureVector fv = assemble_feature_vector(
        abs_eb, candidate.wire_id, probe.df, probe.per_scale[scale_index]);
    const QualityPrediction prediction =
        options_.model->predict(fv, probe.elements);
    return clamp_log2_ratio(std::log2(
        std::max(prediction.compression_ratio, 1.0)));
  }
  // Un-probed block (default single-scale mode): a zero base makes the
  // residuals plain EW log ratios, which is all the duel-led selection
  // needs.
  if (probe.per_scale.empty()) return 0.0;
  // Closed-form estimate: the Huffman stage spends about the sampled
  // quantization-bin entropy per value, against 32 raw bits. Backend-
  // independent — the per-backend residuals supply the separation.
  const double bits =
      std::max(probe.per_scale[scale_index].quant_entropy, 32.0 / 1024.0);
  return clamp_log2_ratio(std::log2(32.0 / bits));
}

double AdvisorPolicy::estimated_psnr_db(const TaskProbe& probe,
                                        std::size_t scale_index,
                                        const Candidate& candidate,
                                        double abs_eb) const {
  if (options_.model != nullptr) {
    const FeatureVector fv = assemble_feature_vector(
        abs_eb, candidate.wire_id, probe.df, probe.per_scale[scale_index]);
    return options_.model->predict(fv, probe.elements).psnr_db;
  }
  // Analytic bound-driven estimate: quantization error ~ uniform on
  // [-eb, eb] gives MSE = eb^2 / 3.
  if (probe.sampled_range <= 0.0 || abs_eb <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return 10.0 * std::log10(3.0 * probe.sampled_range * probe.sampled_range /
                           (abs_eb * abs_eb));
}

double AdvisorPolicy::residual_value(std::size_t field,
                                     std::size_t candidate) const {
  const FieldState& fs = field_states_[field];
  if (fs.inited && (fs.local[candidate].observations > 0 ||
                    fs.local[candidate].seeded)) {
    return fs.local[candidate].log2;
  }
  return residuals_[candidate].value();
}

void AdvisorPolicy::update_residual(std::size_t field, std::size_t candidate,
                                    double sample_log2) {
  sample_log2 = std::clamp(sample_log2, -kMaxLog2Ratio, kMaxLog2Ratio);
  const auto fold = [&](Residual& residual) {
    ++residual.observations;
    const double alpha = std::max(
        kLearningRate, 1.0 / static_cast<double>(residual.observations));
    residual.log2 = (1.0 - alpha) * residual.log2 + alpha * sample_log2;
  };
  fold(field_states_[field].local[candidate]);
  fold(residuals_[candidate]);
}

BlockDecision AdvisorPolicy::decide(const BlockContext& ctx) {
  const TaskProbe& probe = probes_[ctx.task];

  FieldState& fs = field_states_[ctx.field];
  if (!fs.inited) {
    fs.inited = true;
    fs.budget_bytes = kExploreBudget * static_cast<double>(ctx.field_bytes);
    fs.explored.assign(candidates_.size(), false);
    fs.local.assign(candidates_.size(), {});
    fs.paired.assign(candidates_.size(), 0.0);
    fs.paired_set.assign(candidates_.size(), false);
  }

  // Fold the field's calibration probe before its first decision, so
  // even block 0 chooses with observed evidence for every candidate.
  // Calibration is provisional: compressing a short slab prefix
  // under-rates backends whose ratio grows with array size, so the
  // probe only seeds the field-local residual without counting as an
  // observation — the field's first true block-granularity observation
  // of the candidate replaces it outright.
  FieldCalibration& calib = calibrations_[ctx.field];
  if (calib.ran && !calib.folded) {
    calib.folded = true;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      const double base = base_log2_ratio(
          probe, 0, candidates_[c],
          ctx.field_abs_eb * options_.eb_scales.front());
      fs.local[c].seeded = true;
      fs.local[c].log2 = std::clamp(calib.obs_log2[c] - base,
                                    -kMaxLog2Ratio, kMaxLog2Ratio);
    }
  }

  // Score every (candidate, eb-scale) pair: adjusted ratio prediction
  // plus the quality constraint. Feasible pairs always beat infeasible
  // ones; within a class the adjusted prediction decides, with a
  // seeded hash as a deterministic tie-break.
  std::size_t best_c = 0;
  std::size_t best_s = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint64_t best_tie = 0;
  bool best_feasible = false;
  std::vector<double> candidate_score(
      candidates_.size(), -std::numeric_limits<double>::infinity());
  std::vector<std::size_t> candidate_scale(candidates_.size(), 0);
  std::vector<bool> candidate_scale_feasible(candidates_.size(), false);
  for (std::size_t s = 0; s < options_.eb_scales.size(); ++s) {
    const double abs_eb = ctx.field_abs_eb * options_.eb_scales[s];
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      const double base = base_log2_ratio(probe, s, candidates_[c], abs_eb);
      const double adj = base + residual_value(ctx.field, c);
      const bool feasible =
          options_.min_psnr_db <= 0.0 ||
          estimated_psnr_db(probe, s, candidates_[c], abs_eb) >=
              options_.min_psnr_db;
      // Ordering: feasible beats infeasible; among feasible picks the
      // adjusted prediction decides; when nothing meets the floor the
      // tightest bound wins (closest to the requested quality).
      const auto beats = [&](bool cur_feasible, double cur_score,
                             std::size_t cur_scale, bool prev_feasible,
                             double prev_score, std::size_t prev_scale,
                             bool prev_valid) {
        if (!prev_valid) return true;
        if (cur_feasible != prev_feasible) return cur_feasible;
        if (!cur_feasible &&
            options_.eb_scales[cur_scale] != options_.eb_scales[prev_scale]) {
          return options_.eb_scales[cur_scale] <
                 options_.eb_scales[prev_scale];
        }
        return cur_score > prev_score;
      };
      // Per-candidate best scale (same ordering).
      const bool candidate_valid =
          candidate_score[c] > -std::numeric_limits<double>::infinity();
      if (beats(feasible, adj, s, candidate_scale_feasible[c],
                candidate_score[c], candidate_scale[c], candidate_valid)) {
        candidate_score[c] = adj;
        candidate_scale[c] = s;
        candidate_scale_feasible[c] = feasible;
      }
      // The entropy id enters the hash shifted past the backend id's
      // byte; the default stage contributes 0, so stage-unaware runs
      // hash — and tie-break — exactly as before.
      const std::uint64_t tie =
          mix(kTieBreakSeed ^ (ctx.task * 1315423911u) ^
              (candidates_[c].wire_id << 8) ^
              (static_cast<std::uint64_t>(candidates_[c].entropy_id) << 16) ^
              s);
      const bool best_valid =
          best_score > -std::numeric_limits<double>::infinity();
      const bool better =
          beats(feasible, adj, s, best_feasible, best_score, best_s,
                best_valid) ||
          (best_valid && feasible == best_feasible && adj == best_score &&
           options_.eb_scales[s] == options_.eb_scales[best_s] &&
           tie < best_tie);
      if (better) {
        best_c = c;
        best_s = s;
        best_score = adj;
        best_tie = tie;
        best_feasible = feasible;
      }
    }
  }

  // Backend choice. The trained-model path trusts the per-candidate
  // predictions (the model genuinely separates backends per block).
  // The closed-form estimate cannot — its entropy base is backend-
  // independent and its per-block noise exceeds real backend gaps —
  // so there the field's duel leader decides, and scoring only picks
  // the leader's error-bound scale and orders the duel queue.
  if (options_.model == nullptr) {
    if (!fs.leader_set) {
      fs.leader_set = true;
      fs.leader = best_c;  // elected by the calibration seeds
      fs.paired[best_c] = 0.0;  // anchors the paired-score scale
      fs.paired_set[best_c] = true;
    }
    best_c = fs.leader;
    best_s = candidate_scale[best_c];
  }

  BlockDecision decision;
  decision.config = base_;
  decision.config.backend = candidates_[best_c].name;
  if (!candidates_[best_c].entropy.empty())
    decision.config.entropy = candidates_[best_c].entropy;
  decision.config.eb_mode = EbMode::kAbsolute;
  decision.config.eb = ctx.field_abs_eb * options_.eb_scales[best_s];
  decision.backend_id = candidates_[best_c].wire_id;
  const double base =
      base_log2_ratio(probe, best_s, candidates_[best_c], decision.config.eb);
  decision.predicted_ratio =
      std::exp2(base + residual_value(ctx.field, best_c));

  pending_base_[ctx.task] = base;
  pending_cand_[ctx.task] = best_c;

  // Keep-best exploration: until the field's byte budget runs out,
  // nominate the strongest candidate that still lacks a true
  // block-granularity observation this field. The executor compresses
  // the block under both configs and keeps the smaller payload, so
  // this buys an unbiased observation (the calibration prefix under-
  // rates backends whose ratio grows with array size) at pure compute
  // cost, never ratio.
  fs.explored[best_c] = true;
  pending_challenger_cand_[ctx.task] = candidates_.size();
  const double block_bytes = static_cast<double>(ctx.block_bytes);
  // Every field gets at least one duel even when its blocks are too
  // large for the byte budget: a prefix probe cannot separate
  // candidates whose ratio advantage only shows at block granularity
  // (multilevel families), and a field stuck on the wrong backend
  // costs far more than one keep-best block.
  const bool first_duel = !fs.any_duel;
  if (candidates_.size() > 1 &&
      (fs.budget_bytes >= block_bytes || first_duel)) {
    std::size_t challenger = candidates_.size();
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      if (fs.explored[c]) continue;
      // A seed trailing the leader's score by more than the duel
      // margin is beyond any observed prefix bias — not worth a block.
      if (candidate_score[c] < candidate_score[best_c] - kDuelMarginLog2) {
        continue;
      }
      if (challenger == candidates_.size() ||
          candidate_score[c] > candidate_score[challenger]) {
        challenger = c;
      }
    }
    if (challenger != candidates_.size()) {
      fs.explored[challenger] = true;
      fs.any_duel = true;
      fs.budget_bytes -= block_bytes;
      decision.has_challenger = true;
      decision.challenger = decision.config;
      decision.challenger.backend = candidates_[challenger].name;
      decision.challenger.entropy = candidate_entropy(challenger);
      decision.challenger_id = candidates_[challenger].wire_id;
      pending_challenger_cand_[ctx.task] = challenger;
      pending_challenger_base_[ctx.task] = base_log2_ratio(
          probe, best_s, candidates_[challenger], decision.config.eb);
    }
  }

  log_slot_[ctx.task] = log_.size();
  log_.push_back({ctx.field, ctx.block, decision.config.backend,
                  decision.backend_id, candidate_entropy(best_c),
                  candidate_entropy_id(best_c), decision.config.eb,
                  decision.predicted_ratio, 0.0,
                  decision.has_challenger ? decision.challenger.backend
                                          : std::string(),
                  false});
  return decision;
}

void AdvisorPolicy::observe(const BlockContext& ctx,
                            const BlockDecision& decision,
                            const BlockOutcome& outcome) {
  if (outcome.primary_bytes == 0 || outcome.raw_bytes == 0) return;
  const double raw = static_cast<double>(outcome.raw_bytes);
  const double primary_ratio =
      raw / static_cast<double>(outcome.primary_bytes);
  update_residual(ctx.field, pending_cand_[ctx.task],
                  std::log2(primary_ratio) - pending_base_[ctx.task]);

  AdaptiveDecisionRecord& record = log_[log_slot_[ctx.task]];
  record.observed_ratio = primary_ratio;
  const std::size_t challenger = pending_challenger_cand_[ctx.task];
  if (challenger < candidates_.size() && outcome.challenger_bytes > 0) {
    const double challenger_ratio =
        raw / static_cast<double>(outcome.challenger_bytes);
    update_residual(ctx.field, challenger,
                    std::log2(challenger_ratio) -
                        pending_challenger_base_[ctx.task]);
    // Closed-form path: fold the duel into the paired scores. Both
    // payloads came from the same block, so their log-ratio delta is
    // an unbiased pairwise comparison; chaining through the primary's
    // score makes every dueled candidate comparable, and the top score
    // leads the field from the next decision on.
    FieldState& fs = field_states_[ctx.field];
    const std::size_t primary = pending_cand_[ctx.task];
    if (options_.model == nullptr && fs.paired_set[primary]) {
      fs.paired[challenger] = fs.paired[primary] +
                              std::log2(challenger_ratio) -
                              std::log2(primary_ratio);
      fs.paired_set[challenger] = true;
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        if (fs.paired_set[c] && fs.paired[c] > fs.paired[fs.leader]) {
          fs.leader = c;
        }
      }
    }
    if (outcome.kept_challenger) {
      // The container holds the challenger's payload; the table names
      // what is actually on the wire.
      record.backend = decision.challenger.backend;
      record.backend_id = decision.challenger_id;
      record.entropy = candidate_entropy(challenger);
      record.entropy_id = candidate_entropy_id(challenger);
      record.observed_ratio = challenger_ratio;
      record.kept_challenger = true;
    }
  }
}

std::string to_string(const AdaptiveSummary& summary) {
  std::string mix;
  for (const auto& [name, blocks] : summary.backend_blocks) {
    if (!mix.empty()) mix += ' ';
    mix += name + ':' + std::to_string(blocks);
  }
  // The stage mix only earns its line width when some block left the
  // default chain; all-huffman runs read exactly as they used to.
  const bool all_default = summary.entropy_blocks.empty() ||
                           (summary.entropy_blocks.size() == 1 &&
                            summary.entropy_blocks.front().first == "huffman");
  if (!all_default) {
    mix += mix.empty() ? "entropy[" : " entropy[";
    for (std::size_t i = 0; i < summary.entropy_blocks.size(); ++i) {
      if (i > 0) mix += ' ';
      mix += summary.entropy_blocks[i].first + ':' +
             std::to_string(summary.entropy_blocks[i].second);
    }
    mix += ']';
  }
  return mix.empty() ? "-" : mix;
}

AdaptiveSummary AdvisorPolicy::summary() const {
  AdaptiveSummary summary;
  summary.blocks = log_.size();
  // Candidates are a cross-product, so the same backend (or stage) can
  // appear several times; count each wire id once, in candidate order
  // (backend-major keeps both lists in wire-id order).
  std::vector<std::uint8_t> seen_backends;
  std::vector<std::uint8_t> seen_stages;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const Candidate& candidate = candidates_[c];
    if (std::find(seen_backends.begin(), seen_backends.end(),
                  candidate.wire_id) == seen_backends.end()) {
      seen_backends.push_back(candidate.wire_id);
      std::size_t count = 0;
      for (const AdaptiveDecisionRecord& record : log_) {
        if (record.backend_id == candidate.wire_id) ++count;
      }
      if (count > 0)
        summary.backend_blocks.emplace_back(candidate.name, count);
    }
    const std::uint8_t stage_id = candidate_entropy_id(c);
    if (std::find(seen_stages.begin(), seen_stages.end(), stage_id) ==
        seen_stages.end()) {
      seen_stages.push_back(stage_id);
      std::size_t count = 0;
      for (const AdaptiveDecisionRecord& record : log_) {
        if (record.entropy_id == stage_id) ++count;
      }
      if (count > 0)
        summary.entropy_blocks.emplace_back(candidate_entropy(c), count);
    }
  }
  return summary;
}

}  // namespace ocelot
