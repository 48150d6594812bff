#include "obs/metrics.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>

#include "common/error.hpp"

namespace ocelot::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// One thread's slice of every metric. Relaxed atomics keep concurrent
/// snapshot reads race-free (and ThreadSanitizer-clean) without
/// ordering cost; on x86 these compile to plain adds.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms * kHistBuckets>
      hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_sum{};
  std::array<std::atomic<std::uint64_t>, kMaxStages> stage_calls{};
  std::array<std::atomic<std::uint64_t>, kMaxStages> stage_ns{};
};

/// Plain-value aggregate of every shard that already died (folded in
/// under the registry mutex by the shard holder's destructor).
struct Retired {
  std::array<std::uint64_t, kMaxCounters> counters{};
  std::array<std::uint64_t, kMaxHistograms * kHistBuckets> hist_buckets{};
  std::array<std::uint64_t, kMaxHistograms> hist_sum{};
  std::array<std::uint64_t, kMaxStages> stage_calls{};
  std::array<std::uint64_t, kMaxStages> stage_ns{};
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  std::vector<std::string> stage_names;
  std::vector<Shard*> shards;  ///< live per-thread shards
  Retired retired;
  // Gauges are level signals, not rates: one global atomic each
  // (last-value / running-level semantics do not shard).
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges{};
};

/// Leaked on purpose: thread_local shard holders (including the main
/// thread's) fold into the registry during static destruction, so it
/// must outlive every thread_local.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

void fold_shard(const Shard& shard, Retired& into) {
  for (std::size_t i = 0; i < kMaxCounters; ++i)
    into.counters[i] += shard.counters[i].load(kRelaxed);
  for (std::size_t i = 0; i < kMaxHistograms * kHistBuckets; ++i)
    into.hist_buckets[i] += shard.hist_buckets[i].load(kRelaxed);
  for (std::size_t i = 0; i < kMaxHistograms; ++i)
    into.hist_sum[i] += shard.hist_sum[i].load(kRelaxed);
  for (std::size_t i = 0; i < kMaxStages; ++i) {
    into.stage_calls[i] += shard.stage_calls[i].load(kRelaxed);
    into.stage_ns[i] += shard.stage_ns[i].load(kRelaxed);
  }
}

void zero_shard(Shard& shard) {
  for (auto& c : shard.counters) c.store(0, kRelaxed);
  for (auto& c : shard.hist_buckets) c.store(0, kRelaxed);
  for (auto& c : shard.hist_sum) c.store(0, kRelaxed);
  for (auto& c : shard.stage_calls) c.store(0, kRelaxed);
  for (auto& c : shard.stage_ns) c.store(0, kRelaxed);
}

/// Registers the thread's shard on construction and folds it into the
/// retired aggregate on thread exit, so parallel_for's short-lived
/// workers never lose their counts.
struct ShardHolder {
  Shard* shard;

  ShardHolder() : shard(new Shard) {
    Registry& reg = registry();
    const std::scoped_lock lock(reg.mu);
    reg.shards.push_back(shard);
  }

  ~ShardHolder() {
    Registry& reg = registry();
    const std::scoped_lock lock(reg.mu);
    fold_shard(*shard, reg.retired);
    std::erase(reg.shards, shard);
    delete shard;
  }
};

Shard& local_shard() {
  thread_local ShardHolder holder;
  return *holder.shard;
}

MetricId intern(std::vector<std::string>& names, const std::string& name,
                std::size_t cap, const char* kind) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<MetricId>(i);
  }
  require(names.size() < cap,
          std::string("obs: out of ") + kind + " ids (raise kMax)");
  names.push_back(name);
  return static_cast<MetricId>(names.size() - 1);
}

/// log2 bucket: 0 -> 0, otherwise 1 + floor(log2(v)) clamped.
std::size_t bucket_of(std::uint64_t value) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(value));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    cum += buckets[b];
    if (static_cast<double>(cum) >= target && buckets[b] > 0) {
      if (b == 0) return 0.0;
      // Geometric midpoint of [2^(b-1), 2^b).
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo * 1.5;
    }
  }
  return std::ldexp(1.0, static_cast<int>(kHistBuckets) - 1) * 1.5;
}

MetricId counter_id(const std::string& name) {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  return intern(reg.counter_names, name, kMaxCounters, "counter");
}

MetricId gauge_id(const std::string& name) {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  return intern(reg.gauge_names, name, kMaxGauges, "gauge");
}

MetricId histogram_id(const std::string& name) {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  return intern(reg.histogram_names, name, kMaxHistograms, "histogram");
}

MetricId stage_id(const std::string& name) {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  return intern(reg.stage_names, name, kMaxStages, "stage");
}

void counter_add(MetricId id, std::uint64_t delta) {
  local_shard().counters[id].fetch_add(delta, kRelaxed);
}

void histogram_record(MetricId id, std::uint64_t value) {
  Shard& shard = local_shard();
  shard.hist_buckets[id * kHistBuckets + bucket_of(value)].fetch_add(1,
                                                                     kRelaxed);
  shard.hist_sum[id].fetch_add(value, kRelaxed);
}

void stage_add(MetricId id, std::uint64_t dur_ns) {
  Shard& shard = local_shard();
  shard.stage_calls[id].fetch_add(1, kRelaxed);
  shard.stage_ns[id].fetch_add(dur_ns, kRelaxed);
}

void gauge_set(MetricId id, std::int64_t value) {
  registry().gauges[id].store(value, kRelaxed);
}

void gauge_add(MetricId id, std::int64_t delta) {
  registry().gauges[id].fetch_add(delta, kRelaxed);
}

MetricsSnapshot metrics_snapshot() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  Retired total = reg.retired;
  for (const Shard* shard : reg.shards) fold_shard(*shard, total);

  MetricsSnapshot snap;
  snap.counters.reserve(reg.counter_names.size());
  for (std::size_t i = 0; i < reg.counter_names.size(); ++i) {
    snap.counters.emplace_back(reg.counter_names[i], total.counters[i]);
  }
  snap.gauges.reserve(reg.gauge_names.size());
  for (std::size_t i = 0; i < reg.gauge_names.size(); ++i) {
    snap.gauges.emplace_back(reg.gauge_names[i], reg.gauges[i].load(kRelaxed));
  }
  snap.histograms.reserve(reg.histogram_names.size());
  for (std::size_t i = 0; i < reg.histogram_names.size(); ++i) {
    HistogramSnapshot h;
    h.name = reg.histogram_names[i];
    h.sum = total.hist_sum[i];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      h.buckets[b] = total.hist_buckets[i * kHistBuckets + b];
      h.count += h.buckets[b];
    }
    snap.histograms.push_back(std::move(h));
  }
  snap.stages.reserve(reg.stage_names.size());
  for (std::size_t i = 0; i < reg.stage_names.size(); ++i) {
    snap.stages.push_back(
        {reg.stage_names[i], total.stage_calls[i], total.stage_ns[i]});
  }
  return snap;
}

void reset_metrics() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  reg.retired = Retired{};
  for (Shard* shard : reg.shards) zero_shard(*shard);
  for (auto& g : reg.gauges) g.store(0, kRelaxed);
}

}  // namespace ocelot::obs
