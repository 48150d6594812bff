#pragma once
// Online adaptive advisor: the paper's feature-driven quality
// prediction moved into the block-parallel hot path.
//
// Where core/advisor.hpp scores whole-file candidates offline, the
// AdvisorPolicy here decides per block, while the campaign runs:
//
//   * every block is probed with the Section VI features (quantization
//     bin statistics on a strided subsample — p0, P0, quantization
//     entropy, Rrle);
//   * a ratio predictor turns the features into a per-candidate
//     compression-ratio estimate — either a trained QualityModel
//     (predictor/quality_model) or, when none is supplied, the
//     closed-form entropy estimate;
//   * an exponentially-weighted residual correction per backend folds
//     the *observed* ratio of every compressed block back into the
//     predictions, so later blocks of the same campaign pick backends
//     based on what actually happened, not just what the model
//     guessed;
//   * the first block of each field additionally runs a calibration
//     probe: a small slab prefix is compressed once per candidate
//     backend, seeding the residuals before any full block commits to
//     a choice.
//
// The policy plugs into parallel_compress / block_compress via the
// BlockPolicy wave protocol (exec/block_policy.hpp), which keeps the
// emitted OCB1 containers byte-identical across worker counts. The
// per-block backend choice is recorded in the container's v1.1 index,
// so `ocelot advise` can recover the decision table from the output
// alone.
//
// With AdaptiveOptions::entropy_stages set, the candidate set becomes
// the backends x entropy-stages cross-product: every duel, residual,
// and calibration slot tracks a (backend, stage) pair, and the chosen
// stage rides into CompressionConfig::entropy (surfacing as OCZ2
// payloads and a v1.2 container index). Left empty, the advisor is
// byte-for-byte the stage-unaware one.

#include <cstdint>
#include <string>
#include <vector>

#include "compressor/config.hpp"
#include "exec/block_policy.hpp"
#include "features/features.hpp"
#include "predictor/quality_model.hpp"

namespace ocelot {

/// Tuning knobs of the online advisor. The rest of its behavior
/// (calibration-probe size, duel margin, learning rate, exploration
/// budget, tie-break seed) is fixed in adaptive.cpp, and the wave size
/// in block_policy.hpp.
struct AdaptiveOptions {
  /// Candidate backend names; empty enlists every backend.
  std::vector<std::string> backends;
  /// Candidate entropy-stage names (codec/entropy.hpp). The advisor
  /// duels the backends x stages cross-product per block. An empty
  /// list keeps the base config's stage only — no cross-product, and
  /// the emitted bytes match a stage-unaware advisor exactly. Unlike
  /// `backends`, empty does NOT enlist every stage: stages multiply
  /// the calibration-probe cost, so opting in is explicit.
  std::vector<std::string> entropy_stages;
  /// Candidate error-bound scales relative to the field-resolved
  /// absolute bound. Every entry must lie in (0, 1]: the policy may
  /// tighten a block's bound, never loosen it past the user's.
  std::vector<double> eb_scales = {1.0};
  /// Reject candidates whose estimated PSNR falls below this (dB);
  /// <= 0 disables the constraint. With several eb_scales this is what
  /// drives per-block bound tightening.
  double min_psnr_db = 0.0;
  /// Feature-sampling stride (1 = every point; the default 100
  /// reproduces the paper's 1% sampling, which keeps the advisor's
  /// overhead within a few percent of compression time).
  std::size_t sample_stride = 100;
  /// Optional trained predictor; nullptr uses the closed-form
  /// entropy estimate (the residual feedback corrects either).
  const QualityModel* model = nullptr;
};

/// One row of the advisor's decision table (ocelot advise). `backend`
/// names the payload that actually landed in the container — when an
/// exploration challenger won the block, that is the challenger.
struct AdaptiveDecisionRecord {
  std::size_t field = 0;
  std::size_t block = 0;
  std::string backend;
  std::uint8_t backend_id = 0;
  std::string entropy;            ///< entropy stage of the landed payload
  std::uint8_t entropy_id = 0;
  double abs_eb = 0.0;
  double predicted_ratio = 0.0;
  double observed_ratio = 0.0;
  std::string challenger;  ///< explored candidate, empty if none
  bool kept_challenger = false;
};

/// Aggregates over one policy run.
struct AdaptiveSummary {
  std::size_t blocks = 0;
  /// Blocks per chosen backend name, in wire-id order.
  std::vector<std::pair<std::string, std::size_t>> backend_blocks;
  /// Blocks per chosen entropy-stage name, in candidate order.
  std::vector<std::pair<std::string, std::size_t>> entropy_blocks;
};

/// "sz3-interp:12 multigrid:4" — the run's chosen-backend mix ("-"
/// when empty), followed by "entropy[huffman:12 ans:4]" whenever the
/// run used anything besides the default huffman chain. Shared by the
/// CLI and the bench tables.
std::string to_string(const AdaptiveSummary& summary);

/// Feature-driven per-block backend / error-bound selector with
/// observed-ratio feedback. Stateful and single-run: create one
/// instance per parallel_compress call (reuse would leak one run's
/// corrections into the next batch, which may be desirable for a
/// multi-batch campaign — that is the one supported reuse: sequential
/// calls, never concurrent ones).
class AdvisorPolicy final : public BlockPolicy {
 public:
  explicit AdvisorPolicy(AdaptiveOptions options = {});

  void begin(std::size_t n_fields, std::size_t n_tasks,
             const CompressionConfig& base) override;
  [[nodiscard]] bool wants_probe(const BlockContext& ctx) const override;
  void probe(const BlockContext& ctx, const FloatArray& block) override;
  BlockDecision decide(const BlockContext& ctx) override;
  void observe(const BlockContext& ctx, const BlockDecision& decision,
               const BlockOutcome& outcome) override;

  /// Per-block decision table, in task order (observed ratios filled
  /// in as blocks complete).
  [[nodiscard]] const std::vector<AdaptiveDecisionRecord>& log() const {
    return log_;
  }

  [[nodiscard]] AdaptiveSummary summary() const;

 private:
  struct Candidate {
    std::string name;
    std::uint8_t wire_id = 0;
    /// Entropy stage this candidate compresses with; empty inherits
    /// the base config's stage (the no-cross-product mode).
    std::string entropy;
    std::uint8_t entropy_id = 0;
  };
  /// Strided per-block measurements, one slot per task.
  struct TaskProbe {
    std::vector<CompressorFeatures> per_scale;  ///< one per eb_scales entry
    DataFeatures df;          ///< full data features (model path only)
    double sampled_range = 0.0;
    std::size_t elements = 0;
  };
  /// Calibration-probe outcome for one field: observed log2 ratios per
  /// candidate, folded into the residuals when the field's first block
  /// is decided.
  struct FieldCalibration {
    bool ran = false;
    bool folded = false;
    std::vector<double> obs_log2;  ///< per candidate
  };
  struct Residual {
    std::size_t observations = 0;  ///< true block-granularity samples
    bool seeded = false;           ///< provisional calibration value set
    double log2 = 0.0;
    [[nodiscard]] double value() const {
      return observations > 0 || seeded ? log2 : 0.0;
    }
  };
  /// Per-field exploration ledger and field-local evidence. Backends
  /// rank differently on different fields, so the decision prefers
  /// residuals learned on *this* field (seeded by its calibration
  /// probe, replaced by its first true block observation) and falls
  /// back to the campaign-global residual only while the field has no
  /// evidence of its own.
  struct FieldState {
    bool inited = false;
    double budget_bytes = 0.0;
    std::vector<bool> explored;    ///< per candidate, true block obs seen
    std::vector<Residual> local;   ///< per candidate, this field only
    /// Closed-form path: duel-based leadership. Every challenger run
    /// yields a same-block payload-size comparison against the block's
    /// primary — an unbiased pairwise delta, immune to the cross-block
    /// noise of the entropy estimate. Deltas chain transitively
    /// through the primary into one per-candidate paired score (the
    /// first elected leader anchors the scale at 0), and the top
    /// paired score leads the field.
    std::size_t leader = 0;
    bool leader_set = false;
    bool any_duel = false;  ///< at least one duel ran in this field
    std::vector<double> paired;    ///< per candidate, chained log2 delta
    std::vector<bool> paired_set;  ///< per candidate
  };

  /// True when per-block features can influence a decision: a trained
  /// model consumes the full vector, several eb scales need per-scale
  /// entropy estimates, or a PSNR floor needs the value range. In the
  /// default single-scale closed-form mode the entropy base is common
  /// to every candidate, so sampling it could not change any choice —
  /// those blocks skip the probe pass entirely (and the duel/feedback
  /// loop carries the selection).
  [[nodiscard]] bool needs_block_features() const;
  [[nodiscard]] double base_log2_ratio(const TaskProbe& probe,
                                       std::size_t scale_index,
                                       const Candidate& candidate,
                                       double abs_eb) const;
  [[nodiscard]] double estimated_psnr_db(const TaskProbe& probe,
                                         std::size_t scale_index,
                                         const Candidate& candidate,
                                         double abs_eb) const;
  /// Field-local residual when the field has evidence for the
  /// candidate, else the campaign-global one.
  [[nodiscard]] double residual_value(std::size_t field,
                                      std::size_t candidate) const;
  void update_residual(std::size_t field, std::size_t candidate,
                       double sample_log2);

  /// Stage name/id a candidate actually compresses with: its own when
  /// set, the base config's otherwise.
  [[nodiscard]] const std::string& candidate_entropy(std::size_t c) const;
  [[nodiscard]] std::uint8_t candidate_entropy_id(std::size_t c) const;

  AdaptiveOptions options_;
  CompressionConfig base_;
  std::uint8_t base_entropy_id_ = 0;  ///< wire id of base_.entropy
  std::vector<Candidate> candidates_;
  std::vector<TaskProbe> probes_;
  std::vector<FieldCalibration> calibrations_;
  std::vector<FieldState> field_states_;
  std::vector<Residual> residuals_;       ///< per candidate
  std::vector<double> pending_base_;      ///< chosen base log2, per task
  std::vector<std::size_t> pending_cand_; ///< chosen candidate, per task
  /// Challenger bookkeeping, per task (candidate count = "none").
  std::vector<double> pending_challenger_base_;
  std::vector<std::size_t> pending_challenger_cand_;
  std::vector<std::size_t> log_slot_;     ///< task -> log_ row
  std::vector<AdaptiveDecisionRecord> log_;
};

}  // namespace ocelot
