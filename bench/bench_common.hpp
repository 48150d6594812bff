#pragma once
// Shared helpers for the bench binaries that regenerate the paper's
// tables and figures: sample collection (real compression runs over
// generated datasets), quality-model training, the machine-readable
// BENCH_<name>.json emitter that records the perf trajectory, and the
// global allocation counters that make the zero-copy data path's
// allocation profile visible in every report.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compressor/compressor.hpp"
#include "datagen/datasets.hpp"
#include "features/features.hpp"
#include "predictor/quality_model.hpp"

namespace ocelot::bench {

/// Snapshot of the process-wide heap counters. Bench binaries link
/// operator new/delete overrides (bench_common.cpp), so every
/// allocation in the process is counted; library/test builds are
/// untouched. Subtract two snapshots to profile a region:
///
///   const AllocCounters before = alloc_counters();
///   ... workload ...
///   const std::uint64_t allocs = alloc_counters().allocs - before.allocs;
struct AllocCounters {
  std::uint64_t allocs = 0;          ///< operator new calls
  std::uint64_t frees = 0;           ///< operator delete calls
  std::uint64_t bytes_allocated = 0; ///< cumulative bytes requested
  std::uint64_t current_bytes = 0;   ///< live bytes right now
  std::uint64_t peak_bytes = 0;      ///< high-water mark of live bytes
};

[[nodiscard]] AllocCounters alloc_counters();

/// Resets the peak to the current live bytes, scoping a peak-scratch
/// measurement to the code that follows.
void reset_alloc_peak();

/// When enabled, every counted allocation dumps a raw backtrace to
/// stderr (addresses only; symbolize offline with `addr2line -e
/// <bench_binary>`). Scope it around a suspect region to attribute
/// residual steady-state allocations. Glibc-only; a no-op elsewhere.
void set_alloc_trace(bool enabled);

/// Machine-readable bench output. Every bench binary can accumulate
/// top-level metrics (e.g. ratio, psnr_db, speedup) plus per-setting
/// rows and dump them as BENCH_<name>.json, which tools/check_bench.py
/// gates in CI and the perf trajectory archives:
///
///   {"bench": "<name>",
///    "metrics": {"ratio": 8.1, ...},
///    "rows": [{"label": "workers=4", "wall_seconds": 0.12, ...}, ...]}
///
/// Non-finite values serialize as null. Files land in $OCELOT_BENCH_DIR
/// when set, else the working directory. write() appends the process
/// allocation counters (total_allocs, peak_alloc_bytes) to the metrics
/// automatically unless the bench already set those keys.
///
/// Constructing a BenchReport also turns on obs profiling, and write()
/// stamps the per-stage breakdown ("obs:<stage>" rows with calls /
/// total_ms / mean_us, plus "obs_s:<stage>" seconds metrics) and the
/// shared-pool stats ("pool:<name>" rows) into every report, so the
/// bench-trend history carries the hot-path profile alongside the
/// headline metrics.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Sets a top-level scalar metric (insertion order preserved).
  void set_metric(const std::string& key, double value);

  /// Appends one measurement row.
  void add_row(const std::string& label,
               const std::vector<std::pair<std::string, double>>& fields);

  /// Writes BENCH_<name>.json; returns the path written.
  std::string write() const;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::vector<Row> rows_;
};

/// One measured observation: a (field, config) pair with its features
/// and ground-truth compression outcomes.
struct Observation {
  std::string app;
  std::string field;
  double eb = 0.0;  ///< value-range-relative bound
  std::string backend = "sz3-interp";  ///< backend table name
  QualitySample sample;   ///< features + measured targets
  RoundTripStats stats;   ///< full measured round-trip record
};

/// Default error-bound sweep (decade grid; bounds bench runtime).
std::vector<double> default_eb_sweep();

/// The paper's protocol: 11 bounds from 1e-6 to 1e-1 (half-decade grid).
std::vector<double> dense_eb_sweep();

/// Runs real compression over every field of `apps` at `scale` for
/// each (eb, backend) combination; returns one Observation each.
/// `group_ids` in the samples are indices into `apps`.
std::vector<Observation> collect_observations(
    const std::vector<std::string>& apps, double scale,
    const std::vector<double>& ebs, const std::vector<std::string>& backends,
    std::uint64_t seed = 4242, std::size_t sample_stride = 20,
    int variants = 1);

/// Extracts the QualitySamples for model training.
std::vector<QualitySample> to_samples(const std::vector<Observation>& obs);

/// Splits observation indices train/test, stratified by app.
struct ObservationSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};
ObservationSplit split_observations(const std::vector<Observation>& obs,
                                    double train_fraction,
                                    std::uint64_t seed = 7);

/// Trains a quality model on the selected observations.
QualityModel train_on(const std::vector<Observation>& obs,
                      const std::vector<std::size_t>& indices);

}  // namespace ocelot::bench
