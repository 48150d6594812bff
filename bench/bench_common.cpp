#include "bench_common.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#if defined(__GLIBC__)
#include <execinfo.h>
#include <malloc.h>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "compressor/backend.hpp"
#include "ml/random_forest.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

// ---------------------------------------------------------------------
// Global allocation counters. These overrides live in the same TU as
// BenchReport so the static library always pulls them into bench
// binaries; the core library and the tests keep the default heap.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_bytes_allocated{0};
std::atomic<std::uint64_t> g_current_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Actual usable block size, so frees can be accounted without a
/// size-tracking side table.
std::size_t block_size(void* p) noexcept {
#if defined(__GLIBC__)
  return p != nullptr ? malloc_usable_size(p) : 0;
#else
  (void)p;
  return 0;
#endif
}

std::atomic<bool> g_alloc_trace{false};

/// Dumps the calling stack to stderr without allocating (the
/// symbols_fd variant is async-signal-safe); the reentry flag keeps
/// backtrace()'s own lazy-init allocations from recursing.
void maybe_trace_alloc() noexcept {
#if defined(__GLIBC__)
  if (!g_alloc_trace.load(kRelaxed)) return;
  thread_local bool in_trace = false;
  if (in_trace) return;
  in_trace = true;
  void* frames[24];
  const int n = backtrace(frames, 24);
  backtrace_symbols_fd(frames, n, 2);
  const char sep[] = "----\n";
  (void)!write(2, sep, sizeof(sep) - 1);
  in_trace = false;
#endif
}

void note_alloc(void* p) noexcept {
  g_allocs.fetch_add(1, kRelaxed);
  maybe_trace_alloc();
  const std::size_t size = block_size(p);
  g_bytes_allocated.fetch_add(size, kRelaxed);
  const std::uint64_t current =
      g_current_bytes.fetch_add(size, kRelaxed) + size;
  std::uint64_t peak = g_peak_bytes.load(kRelaxed);
  while (current > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, current, kRelaxed)) {
  }
}

void note_free(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, kRelaxed);
  g_current_bytes.fetch_sub(block_size(p), kRelaxed);
}

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  note_free(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace ocelot::bench {

AllocCounters alloc_counters() {
  AllocCounters c;
  c.allocs = g_allocs.load(kRelaxed);
  c.frees = g_frees.load(kRelaxed);
  c.bytes_allocated = g_bytes_allocated.load(kRelaxed);
  c.current_bytes = g_current_bytes.load(kRelaxed);
  c.peak_bytes = g_peak_bytes.load(kRelaxed);
  return c;
}

void reset_alloc_peak() {
  g_peak_bytes.store(g_current_bytes.load(kRelaxed), kRelaxed);
}

void set_alloc_trace(bool enabled) {
  g_alloc_trace.store(enabled, kRelaxed);
}

}  // namespace ocelot::bench

namespace ocelot::bench {

namespace {

/// JSON number or null for non-finite values; max_digits10 so the
/// trajectory round-trips doubles exactly.
void append_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  std::ostringstream num;
  num.precision(17);
  num << value;
  os << num.str();
}

void append_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  require(!name_.empty(), "BenchReport: empty name");
  // Benches always profile: the stage breakdown stamped by write() is
  // part of the perf trajectory, and keeping it on in every bench run
  // is itself a live overhead test of the instrumentation.
  obs::set_profiling(true);
}

void BenchReport::set_metric(const std::string& key, double value) {
  for (auto& [k, v] : metrics_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(key, value);
}

void BenchReport::add_row(
    const std::string& label,
    const std::vector<std::pair<std::string, double>>& fields) {
  rows_.push_back({label, fields});
}

std::string BenchReport::write() const {
  // Every report carries the process allocation profile so the perf
  // trajectory tracks the zero-copy data path; explicit set_metric
  // calls with the same keys win.
  std::vector<std::pair<std::string, double>> metrics = metrics_;
  const AllocCounters ac = alloc_counters();
  for (const auto& [key, value] :
       {std::pair<std::string, double>{"total_allocs",
                                       static_cast<double>(ac.allocs)},
        std::pair<std::string, double>{"peak_alloc_bytes",
                                       static_cast<double>(ac.peak_bytes)}}) {
    bool present = false;
    for (const auto& [k, v] : metrics) present = present || k == key;
    if (!present) metrics.emplace_back(key, value);
  }

  // Per-stage breakdown + pool stats rows, stamped into every report.
  // Stage totals also land in the metrics map ("obs_s:<stage>") so the
  // bench-trend history rows — which record metrics only — carry the
  // hot-path profile, not just the headline numbers. The obs_s:*
  // pattern is deliberately outside DEFAULT_BASELINE_PATTERNS: wall
  // time is recorded, never baseline-gated.
  std::vector<Row> rows = rows_;
  for (const obs::StageSnapshot& s : obs::metrics_snapshot().stages) {
    const double total_ms = static_cast<double>(s.total_ns) * 1e-6;
    const double mean_us =
        s.calls > 0 ? static_cast<double>(s.total_ns) * 1e-3 /
                          static_cast<double>(s.calls)
                    : 0.0;
    rows.push_back({"obs:" + s.name,
                    {{"calls", static_cast<double>(s.calls)},
                     {"total_ms", total_ms},
                     {"mean_us", mean_us}}});
    metrics.emplace_back("obs_s:" + s.name, total_ms * 1e-3);
  }
  for (const obs::PoolReport& p : obs::shared_pool_reports()) {
    rows.push_back(
        {"pool:" + p.name,
         {{"created", static_cast<double>(p.created)},
          {"reused", static_cast<double>(p.reused)},
          {"pooled_capacity_bytes",
           static_cast<double>(p.pooled_capacity_bytes)},
          {"wait_ms", static_cast<double>(p.wait_ns) * 1e-6}}});
  }

  std::ostringstream os;
  os << "{\n  \"bench\": ";
  append_string(os, name_);
  os << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    append_string(os, metrics[i].first);
    os << ": ";
    append_number(os, metrics[i].second);
  }
  os << "},\n  \"rows\": [";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << (r > 0 ? ",\n    {" : "\n    {");
    os << "\"label\": ";
    append_string(os, rows[r].label);
    for (const auto& [key, value] : rows[r].fields) {
      os << ", ";
      append_string(os, key);
      os << ": ";
      append_number(os, value);
    }
    os << "}";
  }
  os << (rows.empty() ? "]\n}\n" : "\n  ]\n}\n");

  std::string dir = ".";
  if (const char* env = std::getenv("OCELOT_BENCH_DIR");
      env != nullptr && env[0] != '\0') {
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  require(out.good(), "BenchReport: cannot open " + path);
  out << os.str();
  return path;
}

std::vector<double> default_eb_sweep() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
}

std::vector<double> dense_eb_sweep() {
  std::vector<double> ebs;
  double eb = 1e-6;
  for (int i = 0; i < 11; ++i) {
    ebs.push_back(eb);
    eb *= 3.16227766;  // half-decade steps
  }
  ebs.back() = 1e-1;  // land exactly on the paper's upper bound
  return ebs;
}

std::vector<Observation> collect_observations(
    const std::vector<std::string>& apps, double scale,
    const std::vector<double>& ebs, const std::vector<std::string>& backends,
    std::uint64_t seed, std::size_t sample_stride, int variants) {
  std::vector<Observation> observations;
  for (std::size_t app_idx = 0; app_idx < apps.size(); ++app_idx) {
    const auto fields =
        generate_application(apps[app_idx], scale, seed, variants);
    for (const auto& field : fields) {
      const DataFeatures df = extract_data_features(field.data);
      for (const std::string& backend : backends) {
        const std::uint8_t backend_id = backend_by_name(backend).wire_id;
        for (const double eb : ebs) {
          CompressionConfig config;
          config.backend = backend;
          config.eb_mode = EbMode::kValueRangeRel;
          config.eb = eb;

          Observation obs;
          obs.app = apps[app_idx];
          obs.field = field.name;
          obs.eb = eb;
          obs.backend = backend;

          const double abs_eb = resolve_abs_eb(field.data, config);
          const CompressorFeatures cf = extract_compressor_features(
              field.data, abs_eb, sample_stride);
          obs.sample.features =
              assemble_feature_vector(abs_eb, backend_id, df, cf);
          obs.stats = measure_roundtrip(field.data, config);
          obs.sample.compression_ratio = obs.stats.compression_ratio;
          obs.sample.compress_seconds = obs.stats.compress_seconds;
          obs.sample.psnr_db = std::isinf(obs.stats.psnr_db)
                                   ? 200.0
                                   : obs.stats.psnr_db;
          obs.sample.n_elements = field.data.size();
          obs.sample.group = static_cast<int>(app_idx);
          observations.push_back(std::move(obs));
        }
      }
    }
  }
  return observations;
}

std::vector<QualitySample> to_samples(const std::vector<Observation>& obs) {
  std::vector<QualitySample> samples;
  samples.reserve(obs.size());
  for (const auto& o : obs) samples.push_back(o.sample);
  return samples;
}

ObservationSplit split_observations(const std::vector<Observation>& obs,
                                    double train_fraction,
                                    std::uint64_t seed) {
  std::vector<int> groups;
  groups.reserve(obs.size());
  for (const auto& o : obs) groups.push_back(o.sample.group);
  const SplitIndices split =
      train_test_split(obs.size(), train_fraction, seed, groups);
  return {split.train, split.test};
}

QualityModel train_on(const std::vector<Observation>& obs,
                      const std::vector<std::size_t>& indices) {
  std::vector<QualitySample> samples;
  samples.reserve(indices.size());
  for (const std::size_t i : indices) samples.push_back(obs[i].sample);
  return QualityModel::train(samples);
}

}  // namespace ocelot::bench
