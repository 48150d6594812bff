#pragma once
// MetricsRegistry: thread-safe counters, gauges, and log2-bucketed
// histograms with lock-free per-thread shards.
//
// Hot-path writers touch only their own thread's shard (relaxed
// atomics on thread-local cache lines — no locks, no allocation after
// the shard exists), so instrumentation can sit inside the per-block
// compression loop. A shard is created on a thread's first metric
// write and folded into a retired aggregate when the thread exits, so
// the short-lived workers spawned by parallel_for never lose counts.
// metrics_snapshot() merges the retired aggregate with every live
// shard under the registry mutex.
//
// Identity is a dense MetricId resolved once per call site (the
// OCELOT_COUNT/OCELOT_HIST/OCELOT_SPAN macros in obs/trace.hpp cache
// it in a function-local static), so steady-state recording never
// performs a name lookup. Stage ids (span durations) share the same
// shard machinery.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ocelot::obs {

/// Dense index into the per-thread shards; one id space per metric
/// kind (counter / histogram / stage).
using MetricId = std::uint32_t;

inline constexpr std::size_t kMaxCounters = 128;
inline constexpr std::size_t kMaxGauges = 32;
inline constexpr std::size_t kMaxHistograms = 32;
inline constexpr std::size_t kMaxStages = 64;
/// log2 buckets: bucket 0 holds value 0, bucket b holds
/// [2^(b-1), 2^b); 48 buckets cover every uint64 seen in practice.
inline constexpr std::size_t kHistBuckets = 48;

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< sum of recorded values (exact)
  std::array<std::uint64_t, kHistBuckets> buckets{};

  /// Bucket-resolution quantile (geometric bucket midpoint); q in
  /// [0, 1]. Returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Accumulated RAII-span timings for one stage name.
struct StageSnapshot {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  ///< inclusive of nested stages
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<StageSnapshot> stages;
};

/// Resolve (registering on first use) the dense id for a metric name.
/// Names should be stable dotted paths, e.g. "codec.compressed_bytes".
/// Throws Error when a kind's id space (kMax*) is exhausted.
MetricId counter_id(const std::string& name);
MetricId gauge_id(const std::string& name);
MetricId histogram_id(const std::string& name);
MetricId stage_id(const std::string& name);

/// Lock-free recording into the calling thread's shard.
void counter_add(MetricId id, std::uint64_t delta);
void histogram_record(MetricId id, std::uint64_t value);
void stage_add(MetricId id, std::uint64_t dur_ns);

/// Gauges are process-global last-value registers (one atomic each,
/// not sharded): low-frequency level signals like queue depth.
void gauge_set(MetricId id, std::int64_t value);
void gauge_add(MetricId id, std::int64_t delta);

/// Merge of the retired aggregate and every live shard. Counters,
/// histograms, and stages appear in registration order; metrics that
/// were never registered are absent.
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Zeroes every shard and the retired aggregate (registrations are
/// kept). Tooling/tests only — concurrent writers may contribute to
/// either side of the reset.
void reset_metrics();

}  // namespace ocelot::obs
