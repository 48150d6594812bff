// End-to-end benchmark: runs one named workload per process,
// times each layer from outside around calls to its public functions,
// checks every output, and prints one JSON result line.
//
//   bench_e2e --workload NAME --seed S [--seconds T] [--trace] [--smoke]
//             [--self-test] [--setup-only]
//
// Workloads (README.md gives the reason for each):
//   archive-1w    OCF1 parse -> Engine::compress -> Engine::decompress ->
//                 OCF1 write over four fields: fixed sz3-interp, 1 worker
//   adaptive-3w   the same fields through the adaptive OCB1 path, 3 workers
//   daemon-small  in-process ocelotd on a unix socket: open-loop Poisson
//                 traffic from two tenants, then closed-loop saturation
//   fleet-2000    the Orchestrator over seeded 2000-campaign corridor sets
//
// Every input is generated from --seed. Each workload warms up, then
// measures for --seconds. A failed output check (error bound, byte
// identity with direct Engine calls, render determinism) makes the
// result "correct": false and the exit code 1. --self-test corrupts one
// result so that the check must fire; --smoke measures for an eighth of
// --seconds (and on an eighth of the codec data).
//
// Untraced runs keep obs profiling off and print the end-to-end metrics
// (setup_s comes from separate --setup-only processes, see run.py).
// --trace keeps the untraced first and last quarters of the window and
// traces the middle half (A-B-A, so obs.overhead_pct compares
// neighbours and cancels linear drift), prints the per-layer metrics,
// and writes e2e_trace_<workload>.json (the benchmark's spans) next to
// obs_trace_<workload>.json (the library's spans) in the working
// directory.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "datagen/campaigns.hpp"
#include "datagen/datasets.hpp"
#include "io/dataset_file.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "orchestrator/orchestrator.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"

using namespace ocelot;

namespace {

// ---------------------------------------------------------------------
// Metric names. run.py checks these against BENCHMARK.json.
// ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// The fourth end-to-end metric; only --setup-only prints it.
constexpr MetricDef kSetup = {"setup_s", "s"};

constexpr MetricDef kEndToEnd[] = {
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
};

// A layer a workload bypasses reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"io.field_parse_ms_per_mb", "ms/MB"},
    {"io.field_write_ms_per_mb", "ms/MB"},
    {"io.container_finish_ms_per_mb", "ms/MB"},
    {"core.compress_ms_p50", "ms"},
    {"core.compress_ms_p90", "ms"},
    {"core.decompress_ms_p50", "ms"},
    {"core.decompress_ms_p90", "ms"},
    {"core.compress_self_ms_per_mb", "ms/MB"},
    {"core.decompress_reconstruct_ms_per_mb", "ms/MB"},
    {"compressor.predict_quantize_ms_per_mb", "ms/MB"},
    {"codec.huffman_ms_per_mb", "ms/MB"},
    {"codec.lossless_ms_per_mb", "ms/MB"},
    {"codec.entropy_self_ms_per_mb", "ms/MB"},
    {"codec.entropy_decode_ms_per_mb", "ms/MB"},
    {"codec.entropy_out_over_in", "ratio"},
    {"codec.ratio", "ratio"},
    {"codec.max_err_over_eb", "ratio"},
    {"exec.worker_busy_frac", "frac"},
    {"exec.decode_busy_frac", "frac"},
    {"exec.waves_per_mb", "1/MB"},
    {"exec.wave_us_p50", "us"},
    {"exec.wave_us_p99", "us"},
    {"exec.pool_wait_ms_per_mb", "ms/MB"},
    {"advisor.probe_ms_per_mb", "ms/MB"},
    {"advisor.decide_ms_per_mb", "ms/MB"},
    {"advisor.challenger_win_frac", "frac"},
    {"server.admit_us_mean", "us"},
    {"server.compress_us_mean", "us"},
    {"server.decompress_us_mean", "us"},
    {"server.respond_us_mean", "us"},
    {"server.outside_engine_us", "us"},
    {"server.client_write_us_mean", "us"},
    {"server.client_read_us_mean", "us"},
    {"server.cpu_ms_per_req", "ms"},
    {"server.ctx_switches_per_req", "count"},
    {"server.busy_rejects", "count"},
    {"server.latency_p99_ms", "ms"},
    {"server.latency_p999_ms", "ms"},
    {"server.latency_samples", "count"},
    {"server.gen_late_p99_ms", "ms"},
    {"server.gen_late_max_ms", "ms"},
    {"sim.events_per_run", "count"},
    {"sim.fairshare_reallocs_per_event", "ratio"},
    {"sim.fairshare_flows_p50", "count"},
    {"sim.fairshare_flows_p99", "count"},
    {"sim.queue_depth_p99", "count"},
    {"orchestrator.register_ms", "ms"},
    {"orchestrator.run_ms_p50", "ms"},
    {"alloc.allocs_per_mb", "1/MB"},
    {"alloc.allocs_per_req", "count"},
    {"alloc.allocs_per_event", "count"},
    {"obs.overhead_pct", "%"},
};

constexpr double kMB = 1e6;

// ---------------------------------------------------------------------
// Arguments, results, small helpers.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&] {
      require(i + 1 < argc, "missing value for " + a);
      return std::string(argv[++i]);
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.seconds = std::stod(value());
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--self-test") {
      args.self_test = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else {
      throw InvalidArgument("unknown argument: " + a);
    }
  }
  require(!args.workload.empty(), "--workload is required");
  require(args.seconds > 0.0, "--seconds must be positive");
  if (args.smoke) args.seconds = std::max(0.5, args.seconds / 8.0);
  return args;
}

/// Operations attempted and failed, plus the metrics to print.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Independent 64-bit stream per (seed, index): splitmix64.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double div_or_zero(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

double ns_to_ms(double ns) { return ns * 1e-6; }

double pct(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : percentile(samples, p);
}

/// Process-wide counters that a traced part of a run subtracts.
struct Usage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
  double allocs = 0.0;
  double pool_wait_ns = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_ms = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e3 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                   1e-3;
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    u.allocs = static_cast<double>(bench::alloc_counters().allocs);
    for (const obs::PoolReport& p : obs::shared_pool_reports()) {
      u.pool_wait_ns += static_cast<double>(p.wait_ns);
    }
    return u;
  }

  Usage operator-(const Usage& o) const {
    return {cpu_ms - o.cpu_ms, ctx_switches - o.ctx_switches,
            allocs - o.allocs, pool_wait_ns - o.pool_wait_ns};
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // KiB on Linux
}

// ---------------------------------------------------------------------
// The library's obs state, by name.
// ---------------------------------------------------------------------

struct ObsView {
  std::map<std::string, double> stage_ns;
  std::map<std::string, double> stage_calls;
  std::map<std::string, double> counters;
  std::map<std::string, obs::HistogramSnapshot> hists;

  static ObsView take() {
    ObsView v;
    const obs::MetricsSnapshot s = obs::metrics_snapshot();
    for (const obs::StageSnapshot& st : s.stages) {
      v.stage_ns[st.name] = static_cast<double>(st.total_ns);
      v.stage_calls[st.name] = static_cast<double>(st.calls);
    }
    for (const auto& [name, value] : s.counters) {
      v.counters[name] = static_cast<double>(value);
    }
    for (const obs::HistogramSnapshot& h : s.histograms) v.hists[h.name] = h;
    return v;
  }

  [[nodiscard]] double ns(const std::string& name) const {
    return get(stage_ns, name);
  }
  [[nodiscard]] double calls(const std::string& name) const {
    return get(stage_calls, name);
  }
  [[nodiscard]] double count(const std::string& name) const {
    return get(counters, name);
  }
  [[nodiscard]] double mean_us(const std::string& name) const {
    return div_or_zero(ns(name), calls(name)) * 1e-3;
  }
  [[nodiscard]] double quantile(const std::string& name, double q) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.quantile(q);
  }

  /// Adds the stage times and counters of (after - before).
  void add_delta(const ObsView& after, const ObsView& before) {
    for (const auto& [k, v] : after.stage_ns) stage_ns[k] += v - before.ns(k);
    for (const auto& [k, v] : after.stage_calls) {
      stage_calls[k] += v - before.calls(k);
    }
    for (const auto& [k, v] : after.counters) {
      counters[k] += v - before.count(k);
    }
  }

 private:
  static double get(const std::map<std::string, double>& m,
                    const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
};

// ---------------------------------------------------------------------
// The benchmark's own spans.
// ---------------------------------------------------------------------

thread_local std::uint64_t t_open_span = 0;  // innermost open span id

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Spans recorded at the benchmark's layer boundaries: name, start, end,
/// parent span and request id (a frame id, or pass * 16 + field for
/// codec passes). Every Span reads the clock, and the end-to-end numbers
/// come from the same reads, but records are kept only while recording
/// is on: in the traced part of a traced run.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t req;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t tid;
  };

  class Span {
   public:
    Span(SpanLog& log, const char* name, std::uint64_t req)
        : log_(log),
          name_(name),
          req_(req),
          id_(log.next_id_.fetch_add(1, std::memory_order_relaxed)),
          parent_(t_open_span),
          start_ns_(monotonic_now_ns()) {
      t_open_span = id_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { (void)stop(); }

    /// Ends the span on the first call; returns its duration in ns.
    std::uint64_t stop() {
      if (open_) {
        open_ = false;
        const std::uint64_t end_ns = monotonic_now_ns();
        dur_ns_ = end_ns - start_ns_;
        t_open_span = parent_;
        if (log_.recording()) {
          log_.add(
              {name_, id_, parent_, req_, start_ns_, end_ns, thread_index()});
        }
      }
      return dur_ns_;
    }

   private:
    SpanLog& log_;
    const char* name_;
    std::uint64_t req_;
    std::uint64_t id_;
    std::uint64_t parent_;
    std::uint64_t start_ns_;
    std::uint64_t dur_ns_ = 0;
    bool open_ = true;
  };

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Records a span timed elsewhere (a request from its scheduled send
  /// time to its reply).
  void add_timed(const char* name, std::uint64_t req, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
    if (!recording()) return;
    add({name, next_id_.fetch_add(1, std::memory_order_relaxed), 0, req,
         start_ns, end_ns, thread_index()});
  }

  /// Durations (ms) of the recorded spans named `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const {
    const std::scoped_lock lock(mu_);
    std::vector<double> out;
    for (const Record& r : records_) {
      if (name != r.name) continue;
      out.push_back(ns_to_ms(static_cast<double>(r.end_ns - r.start_ns)));
    }
    return out;
  }

  [[nodiscard]] double total_ms(std::string_view name) const {
    double sum = 0.0;
    for (const double d : durations_ms(name)) sum += d;
    return sum;
  }

  [[nodiscard]] double mean_us(std::string_view name) const {
    const double n = static_cast<double>(durations_ms(name).size());
    return div_or_zero(total_ms(name) * 1e3, n);
  }

  /// Chrome trace-event JSON (Perfetto-loadable); ts/dur in us.
  void write_chrome(const std::string& path) const {
    const std::scoped_lock lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    require(f != nullptr, "cannot write " + path);
    std::uint64_t origin = UINT64_MAX;
    for (const Record& r : records_) origin = std::min(origin, r.start_ns);
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"req\":%llu}}",
                   i == 0 ? "" : ",\n", r.name, r.tid,
                   static_cast<double>(r.start_ns - origin) * 1e-3,
                   static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.req));
    }
    std::fputs("\n]}\n", f);
    require(std::fclose(f) == 0, "failed writing " + path);
  }

 private:
  void add(const Record& r) {
    const std::scoped_lock lock(mu_);
    records_.push_back(r);
  }

  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Switches obs profiling + tracing and the benchmark's span log on for
/// the traced part of a run, and keeps what that part saw.
class Tracing {
 public:
  explicit Tracing(SpanLog& log) : log_(log) {}

  void begin() {
    obs::reset_metrics();
    obs::start_tracing();
    log_.set_recording(true);
    start_ = Usage::now();
    active_ = true;
  }

  void end() {
    if (!active_) return;
    obs::stop_tracing();
    obs::set_profiling(false);
    log_.set_recording(false);
    usage_ = Usage::now() - start_;
    obs_ = ObsView::take();
    active_ = false;
  }

  [[nodiscard]] const ObsView& obs() const { return obs_; }
  [[nodiscard]] const Usage& usage() const { return usage_; }

 private:
  SpanLog& log_;
  Usage start_;
  Usage usage_;
  ObsView obs_;
  bool active_ = false;
};

/// The measurement window of --seconds, split A-B-A when traced.
class Window {
 public:
  Window(double seconds, std::size_t min_ops, Tracing* tracing)
      : seconds_(seconds), min_ops_(min_ops), tracing_(tracing) {}

  /// Call before each operation; false once the window is over.
  bool more() {
    const double f = timer_.seconds() / seconds_;
    if (tracing_ != nullptr) {
      if (phase_ == Phase::kBefore && f >= 0.25 && ops_ > 0) {
        tracing_->begin();
        phase_ = Phase::kTraced;
        ops_ = 0;
      } else if (phase_ == Phase::kTraced && f >= 0.75 && ops_ > 0) {
        tracing_->end();
        phase_ = Phase::kAfter;
        ops_ = 0;
      }
    }
    const bool done =
        f >= 1.0 && (tracing_ != nullptr ? phase_ == Phase::kAfter && ops_ > 0
                                         : ops_ >= min_ops_);
    if (!done) ++ops_;
    return !done;
  }

  [[nodiscard]] bool traced() const { return phase_ == Phase::kTraced; }

 private:
  enum class Phase { kBefore, kTraced, kAfter };
  Timer timer_;
  double seconds_;
  std::size_t min_ops_;
  Tracing* tracing_;
  Phase phase_ = Phase::kBefore;
  std::size_t ops_ = 0;
};

/// (traced / untraced - 1) in percent, on a lower-is-better headline.
double overhead_pct(const std::vector<double>& untraced,
                    const std::vector<double>& traced) {
  return (div_or_zero(pct(traced, 50), pct(untraced, 50)) - 1.0) * 100.0;
}

// ---------------------------------------------------------------------
// archive-1w / adaptive-3w: the codec path, field in -> bytes out.
// ---------------------------------------------------------------------

constexpr const char* kCodecFields[][2] = {{"Miranda", "density"},
                                           {"CESM", "TS"},
                                           {"ISABEL", "Uf48"},
                                           {"Nyx", "temperature"}};
constexpr double kCodecScale = 0.35;

struct CodecSpec {
  bool adaptive = false;
  std::size_t workers = 1;
};

struct CodecInput {
  std::string name;
  FloatArray original;
  Bytes ocf1;
};

EngineRequest codec_request(const CodecSpec& spec) {
  const std::string line =
      spec.adaptive
          ? "mode=rel eb=1e-3 policy=adaptive block_slabs=8 workers=" +
                std::to_string(spec.workers)
          : "mode=rel eb=1e-3 backend=sz3-interp";
  OptionSet options = OptionSet::from_line(line, "bench");
  EngineRequest request = parse_compression_options(options);
  options.reject_unknown("bench");
  return request;
}

CodecInput make_codec_input(std::size_t index, std::uint64_t seed,
                            double scale) {
  const char* app = kCodecFields[index][0];
  const char* field = kCodecFields[index][1];
  CodecInput in;
  in.name = std::string(app) + "/" + field;
  in.original = generate_field(app, field, scale, derive_seed(seed, index));
  in.ocf1 = save_field(in.name, in.original);
  return in;
}

/// One field's trip through the four layers, timed per layer.
struct FieldTrip {
  std::uint64_t parse_ns = 0;
  std::uint64_t compress_ns = 0;
  std::uint64_t decompress_ns = 0;
  std::uint64_t write_ns = 0;
  std::size_t compressed_bytes = 0;
  double err_over_eb = 0.0;
  bool ok = false;

  [[nodiscard]] std::uint64_t total_ns() const {
    return parse_ns + compress_ns + decompress_ns + write_ns;
  }
};

/// OCF1 parse -> compress -> decompress -> OCF1 write, then the error
/// check. With non-null sides, the library's obs deltas around the
/// compress and decompress calls are added to them.
FieldTrip field_trip(const CodecInput& in, const EngineRequest& request,
                     std::size_t workers, SpanLog& log, std::uint64_t req,
                     bool corrupt, ObsView* compress_side,
                     ObsView* decompress_side) {
  const Engine& engine = Engine::shared();
  FieldTrip trip;
  SpanLog::Span whole(log, "field.trip", req);

  std::optional<LoadedField> loaded;
  {
    SpanLog::Span s(log, "io.field_parse", req);
    loaded.emplace(load_field(in.ocf1));
    trip.parse_ns = s.stop();
  }

  Bytes blob;
  EngineResult er;
  {
    const ObsView before = compress_side ? ObsView::take() : ObsView{};
    {
      SpanLog::Span s(log, "core.compress", req);
      er = engine.compress(loaded->data, request, blob);
      trip.compress_ns = s.stop();
    }
    if (compress_side) compress_side->add_delta(ObsView::take(), before);
  }
  trip.compressed_bytes = blob.size();

  FloatArray out;
  {
    const ObsView before = decompress_side ? ObsView::take() : ObsView{};
    {
      SpanLog::Span s(log, "core.decompress", req);
      out = engine.decompress(blob, workers);
      trip.decompress_ns = s.stop();
    }
    if (decompress_side) decompress_side->add_delta(ObsView::take(), before);
  }

  Bytes written;
  {
    SpanLog::Span s(log, "io.field_write", req);
    written = save_field(in.name, out);
    trip.write_ns = s.stop();
  }
  whole.stop();

  if (corrupt) out[0] += static_cast<float>(4.0 * er.abs_eb);
  const bool same_shape = out.shape() == in.original.shape();
  trip.err_over_eb =
      same_shape
          ? max_abs_error<float>(in.original.values(), out.values()) / er.abs_eb
          : INFINITY;
  trip.ok = same_shape && er.abs_eb > 0.0 && trip.err_over_eb <= 1.0 + 1e-9 &&
            written.size() == in.ocf1.size();
  return trip;
}

/// Set-up is timed on a small field (Miranda at 0.1, 144 KB), so lazy
/// initialisation, not bulk coding, dominates it.
double setup_codec(const Args& args, const CodecSpec& spec) {
  const CodecInput in = make_codec_input(0, args.seed, 0.1);
  SpanLog log;
  const Timer timer;
  const EngineRequest request = codec_request(spec);
  const FieldTrip trip =
      field_trip(in, request, spec.workers, log, 0, false, nullptr, nullptr);
  const double seconds = timer.seconds();
  require(trip.ok, "set-up round trip broke the error bound");
  return seconds;
}

Result run_codec(const Args& args, const CodecSpec& spec, SpanLog& log) {
  // The generators cost ~1.5 us per value, so the fields are made in
  // parallel; none of this is timed. --smoke halves the scale: an
  // eighth of the data on the 3-D fields.
  const double scale = args.smoke ? kCodecScale / 2 : kCodecScale;
  std::vector<std::future<CodecInput>> pending;
  for (std::size_t i = 0; i < std::size(kCodecFields); ++i) {
    pending.push_back(std::async(std::launch::async, make_codec_input, i,
                                 args.seed, scale));
  }
  std::vector<CodecInput> inputs;
  double raw_bytes = 0.0;
  for (auto& p : pending) {
    inputs.push_back(p.get());
    raw_bytes += static_cast<double>(inputs.back().original.byte_size());
  }
  const EngineRequest request = codec_request(spec);
  Result result;
  double worst_err = 0.0;
  double compressed_bytes = 0.0;

  // Warm pass: lazy registries, pools and arenas fill before timing.
  for (const CodecInput& in : inputs) {
    const FieldTrip trip = field_trip(in, request, spec.workers, log, 0,
                                      false, nullptr, nullptr);
    result.op(trip.ok);
    compressed_bytes += static_cast<double>(trip.compressed_bytes);
    worst_err = std::max(worst_err, trip.err_over_eb);
  }

  Tracing tracing(log);
  Window window(args.seconds, 3, args.trace ? &tracing : nullptr);
  std::vector<double> pass_ms, untraced_ms, traced_ms;
  double total_ns = 0.0;
  double traced_bytes = 0.0;
  std::size_t fields_done = 0;
  ObsView c, d;  // compress and decompress sides of the traced part
  bool corrupt = args.self_test;
  for (std::uint64_t pass = 1; window.more(); ++pass) {
    const bool traced = window.traced();
    std::uint64_t pass_ns = 0;
    for (std::size_t f = 0; f < inputs.size(); ++f) {
      const FieldTrip trip = field_trip(
          inputs[f], request, spec.workers, log, pass * 16 + f, corrupt,
          traced ? &c : nullptr, traced ? &d : nullptr);
      corrupt = false;
      result.op(trip.ok);
      worst_err = std::max(worst_err, trip.err_over_eb);
      pass_ns += trip.total_ns();
      ++fields_done;
    }
    if (traced) traced_bytes += raw_bytes;
    total_ns += static_cast<double>(pass_ns);
    pass_ms.push_back(ns_to_ms(static_cast<double>(pass_ns)));
    (traced ? traced_ms : untraced_ms).push_back(pass_ms.back());
  }

  auto& m = result.metrics;
  if (!args.trace) {
    m["peak_rss_mb"] = peak_rss_mb();
    m["latency_p50_ms"] = pct(pass_ms, 50);
    m["ops_per_s"] = static_cast<double>(fields_done) / (total_ns * 1e-9);
    return result;
  }

  const double mb = traced_bytes / kMB;
  const auto per_mb = [&](double ns) { return div_or_zero(ns_to_ms(ns), mb); };
  const double compress_ms = log.total_ms("core.compress");
  const double decompress_ms = log.total_ms("core.decompress");
  const std::vector<double> comp = log.durations_ms("core.compress");
  const std::vector<double> decomp = log.durations_ms("core.decompress");
  m["io.field_parse_ms_per_mb"] =
      div_or_zero(log.total_ms("io.field_parse"), mb);
  m["io.field_write_ms_per_mb"] =
      div_or_zero(log.total_ms("io.field_write"), mb);
  m["io.container_finish_ms_per_mb"] = per_mb(c.ns("container.finish"));
  m["core.compress_ms_p50"] = pct(comp, 50);
  m["core.compress_ms_p90"] = pct(comp, 90);
  m["core.decompress_ms_p50"] = pct(decomp, 50);
  m["core.decompress_ms_p90"] = pct(decomp, 90);
  if (spec.workers == 1) {
    // Self time needs one thread: the obs stages nest statically under
    // the benchmark's core.* spans only when nothing runs beside them.
    m["core.compress_self_ms_per_mb"] =
        div_or_zero(compress_ms, mb) -
        per_mb(c.ns("codec.predict_quantize") + c.ns("codec.entropy.codes") +
               c.ns("codec.entropy.raw"));
    m["core.decompress_reconstruct_ms_per_mb"] =
        div_or_zero(decompress_ms, mb) - per_mb(d.ns("codec.entropy.decode"));
  }
  m["compressor.predict_quantize_ms_per_mb"] =
      per_mb(c.ns("codec.predict_quantize"));
  m["codec.huffman_ms_per_mb"] = per_mb(c.ns("codec.huffman"));
  m["codec.lossless_ms_per_mb"] = per_mb(c.ns("codec.lossless"));
  m["codec.entropy_self_ms_per_mb"] =
      per_mb(c.ns("codec.entropy.codes") - c.ns("codec.huffman") -
             c.ns("codec.lossless"));
  m["codec.entropy_decode_ms_per_mb"] = per_mb(d.ns("codec.entropy.decode"));
  m["codec.entropy_out_over_in"] =
      div_or_zero(c.count("codec.entropy_out_bytes"),
                  c.count("codec.entropy_in_bytes"));
  m["codec.ratio"] = div_or_zero(raw_bytes, compressed_bytes);
  m["codec.max_err_over_eb"] = worst_err;
  if (spec.workers > 1) {
    const double w = static_cast<double>(spec.workers);
    const ObsView& all = tracing.obs();
    m["exec.worker_busy_frac"] =
        div_or_zero(ns_to_ms(c.ns("compress.block")), w * compress_ms);
    m["exec.decode_busy_frac"] =
        div_or_zero(ns_to_ms(d.ns("decompress.block")), w * decompress_ms);
    m["exec.waves_per_mb"] = div_or_zero(c.count("exec.waves"), mb);
    m["exec.wave_us_p50"] = all.quantile("exec.wave_us", 0.50);
    m["exec.wave_us_p99"] = all.quantile("exec.wave_us", 0.99);
    m["exec.pool_wait_ms_per_mb"] = per_mb(tracing.usage().pool_wait_ns);
  }
  m["advisor.probe_ms_per_mb"] = per_mb(c.ns("advisor.probe"));
  m["advisor.decide_ms_per_mb"] = per_mb(c.ns("advisor.decide"));
  m["advisor.challenger_win_frac"] = div_or_zero(
      c.count("advisor.challenger_wins"), c.count("advisor.challengers"));
  m["alloc.allocs_per_mb"] = div_or_zero(tracing.usage().allocs, mb);
  m["obs.overhead_pct"] = overhead_pct(untraced_ms, traced_ms);
  return result;
}

// ---------------------------------------------------------------------
// daemon-small: in-process ocelotd, open loop then closed loop.
// ---------------------------------------------------------------------

constexpr std::size_t kDaemonInputs = 8;
constexpr double kDaemonScale = 0.05;  // Miranda 12x19x19: 17.3 KB
constexpr double kOpenRate = 2000.0;   // req/s, about a quarter of capacity
constexpr std::size_t kClosedOutstanding = 16;
constexpr double kHeavyShare = 0.75;
constexpr double kCompressShare = 0.90;
constexpr const char* kDaemonOptions = "mode=rel eb=1e-3 backend=sz3-interp";
constexpr const char* kTenants[2] = {"heavy", "light"};

/// A connected client socket, closed on destruction.
class Socket {
 public:
  explicit Socket(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    require(path.size() < sizeof(addr.sun_path),
            "socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    require(fd_ >= 0, "cannot create unix socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd_);
      throw Error("cannot connect to " + path + ": " + reason);
    }
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { ::close(fd_); }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct DaemonInput {
  Bytes ocf1;
  Bytes blob;                 ///< Engine::compress output for ocf1
  Bytes expected_decompress;  ///< save_field(Engine::decompress(blob))
};

/// The expected replies come from direct Engine calls, so every daemon
/// reply must be byte-identical to them.
std::vector<DaemonInput> make_daemon_inputs(std::uint64_t seed,
                                            std::size_t count) {
  const std::vector<std::string> names = field_names("Miranda");
  OptionSet options = OptionSet::from_line(kDaemonOptions, "bench");
  const EngineRequest request = parse_compression_options(options);
  std::vector<DaemonInput> inputs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& name = names[i % names.size()];
    const FloatArray field = generate_field("Miranda", name, kDaemonScale,
                                            derive_seed(seed, 100 + i));
    inputs[i].ocf1 = save_field("Miranda/" + name, field);
    const LoadedField loaded = load_field(inputs[i].ocf1);
    (void)Engine::shared().compress(loaded.data, request, inputs[i].blob);
    inputs[i].expected_decompress = save_field(
        "decompressed", Engine::shared().decompress(inputs[i].blob));
  }
  return inputs;
}

struct Draw {
  std::uint8_t tenant = 0;  ///< index into kTenants
  bool decompress = false;
  std::uint8_t input = 0;
};

std::vector<Draw> make_draws(Rng& rng, std::size_t n) {
  std::vector<Draw> draws(n);
  for (Draw& d : draws) {
    d.tenant = rng.chance(kHeavyShare) ? 0 : 1;
    d.decompress = !rng.chance(kCompressShare);
    d.input = static_cast<std::uint8_t>(rng.uniform_int(0, kDaemonInputs - 1));
  }
  return draws;
}

/// One phase of traffic: what is sent, when, and what came back.
struct Traffic {
  std::vector<Draw> draws;
  std::vector<std::uint64_t> due_ns;  ///< open loop: scheduled send times
  std::unique_ptr<std::atomic<std::uint64_t>[]> sent_ns;
  std::vector<std::uint64_t> recv_ns;  ///< receiver-owned until joined
  std::uint64_t id_base = 0;           ///< frame id = id_base + index + 1
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};

  Traffic(std::vector<Draw> d, std::uint64_t base)
      : draws(std::move(d)),
        sent_ns(new std::atomic<std::uint64_t>[draws.size()]),
        recv_ns(draws.size(), 0),
        id_base(base) {}
};

/// Two tenant connections, one sender (the calling thread) and one
/// receiver thread that reads, checks and times every reply. It reads
/// every reply before a connection closes: a client that hangs up with
/// a reply in flight kills the daemon's process with SIGPIPE.
class LoadGenerator {
 public:
  LoadGenerator(const std::vector<DaemonInput>& inputs,
                const std::string& path, SpanLog& log, Result& result)
      : inputs_(inputs), log_(log), result_(result) {
    for (std::size_t t = 0; t < 2; ++t) {
      conns_[t] = std::make_unique<Socket>(path);
      for (std::size_t k = 0; k < 2; ++k) {
        for (const DaemonInput& in : inputs) {
          server::Frame& f = templates_[t][k].emplace_back();
          f.type = k == 0 ? server::FrameType::kCompress
                          : server::FrameType::kDecompress;
          f.tenant = kTenants[t];
          f.options = k == 0 ? kDaemonOptions : "";
          f.payload = k == 0 ? in.ocf1 : in.blob;
        }
      }
    }
  }

  void corrupt_next_reply() { corrupt_next_ = true; }

  /// Sends on a schedule regardless of replies; `tracing`, when set, is
  /// on for the middle half of the requests.
  void open_loop(Traffic& traffic, Tracing* tracing) {
    run(traffic, [&] {
      const std::size_t n = traffic.draws.size();
      for (std::size_t i = 0; i < n && !aborted_.load(); ++i) {
        if (tracing != nullptr && i == n / 4) tracing->begin();
        if (tracing != nullptr && i == 3 * n / 4) tracing->end();
        const std::uint64_t due = traffic.due_ns[i];
        for (std::uint64_t now = monotonic_now_ns(); now < due;
             now = monotonic_now_ns()) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        send(traffic, i);
      }
    });
  }

  /// Keeps `outstanding` requests in flight for `seconds`; returns the
  /// requests completed per second over that window.
  double closed_loop(Traffic& traffic, double seconds,
                     std::size_t outstanding) {
    std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(outstanding));
    slots_ = &slots;
    std::uint64_t start = 0;
    std::uint64_t stop = 0;
    run(traffic, [&] {
      start = monotonic_now_ns();
      const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
      for (std::size_t i = 0; i < traffic.draws.size(); ++i) {
        slots.acquire();
        if (aborted_.load() || monotonic_now_ns() >= deadline) break;
        send(traffic, i);
      }
      stop = monotonic_now_ns();
    });
    slots_ = nullptr;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < traffic.sent.load(); ++i) {
      if (traffic.recv_ns[i] != 0 && traffic.recv_ns[i] <= stop) ++completed;
    }
    return static_cast<double>(completed) /
           (static_cast<double>(stop - start) * 1e-9);
  }

  [[nodiscard]] std::uint64_t busy_rejects() const { return busy_; }

 private:
  void send(Traffic& traffic, std::size_t i) {
    const Draw& d = traffic.draws[i];
    server::Frame& frame = templates_[d.tenant][d.decompress ? 1 : 0][d.input];
    frame.id = traffic.id_base + i + 1;
    traffic.sent_ns[i].store(monotonic_now_ns(), std::memory_order_relaxed);
    traffic.sent.store(i + 1, std::memory_order_release);
    SpanLog::Span s(log_, "client.write", frame.id);
    server::write_frame(conns_[d.tenant]->fd(), frame);
  }

  /// Runs `sender` on this thread while the receiver thread runs;
  /// returns once every sent request is answered or the receiver fails.
  template <typename Sender>
  void run(Traffic& traffic, Sender&& sender) {
    std::exception_ptr receiver_error;
    std::thread receiver([&] {
      try {
        receive(traffic);
      } catch (...) {
        receiver_error = std::current_exception();
        // Unblock a closed-loop sender waiting for a slot.
        aborted_.store(true);
        if (slots_ != nullptr) slots_->release(kClosedOutstanding);
      }
    });
    try {
      sender();
    } catch (...) {
      traffic.sender_done.store(true);
      receiver.join();
      throw;
    }
    traffic.sender_done.store(true);
    receiver.join();
    if (receiver_error) std::rethrow_exception(receiver_error);
    const std::size_t sent = traffic.sent.load();
    for (std::size_t i = 0; i < sent; ++i) {
      if (traffic.recv_ns[i] == 0) result_.op(false);  // never answered
    }
  }

  void receive(Traffic& traffic) {
    std::array<pollfd, 2> fds{};
    for (std::size_t t = 0; t < 2; ++t) fds[t] = {conns_[t]->fd(), POLLIN, 0};
    std::size_t received = 0;
    std::uint64_t last_reply = monotonic_now_ns();
    while (true) {
      const bool done = traffic.sender_done.load();
      if (done && received == traffic.sent.load()) return;
      // A daemon that stops answering fails the run instead of hanging.
      require(monotonic_now_ns() - last_reply < 20'000'000'000ull,
              "daemon stopped answering");
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (const pollfd& p : fds) {
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        std::optional<server::Frame> frame;
        {
          SpanLog::Span s(log_, "client.read", 0);
          frame = server::read_frame(p.fd);
        }
        last_reply = monotonic_now_ns();
        require(frame.has_value(), "daemon closed a connection mid-run");
        ++received;
        check_reply(traffic, *frame, last_reply);
        if (slots_ != nullptr) slots_->release();
      }
    }
  }

  void check_reply(Traffic& traffic, server::Frame& frame,
                   std::uint64_t recv_ns) {
    const std::uint64_t index = frame.id - traffic.id_base - 1;
    if (frame.id <= traffic.id_base || index >= traffic.draws.size() ||
        traffic.recv_ns[index] != 0) {
      result_.op(false);
      return;
    }
    traffic.recv_ns[index] = recv_ns;
    const std::uint64_t start =
        traffic.due_ns.empty() ? traffic.sent_ns[index].load()
                               : traffic.due_ns[index];
    log_.add_timed("client.request", frame.id, start, recv_ns);
    if (frame.type == server::FrameType::kError &&
        frame.options == server::error_code::kBusy) {
      ++busy_;
    }
    if (corrupt_next_ && !frame.payload.empty()) {
      frame.payload[0] ^= 0x01;
      corrupt_next_ = false;
    }
    const Draw& d = traffic.draws[index];
    const Bytes& want = d.decompress ? inputs_[d.input].expected_decompress
                                     : inputs_[d.input].blob;
    result_.op(frame.type == server::FrameType::kOk && frame.payload == want);
  }

  const std::vector<DaemonInput>& inputs_;
  SpanLog& log_;
  Result& result_;
  std::array<std::unique_ptr<Socket>, 2> conns_;
  // [tenant][compress, decompress][input]
  std::array<std::array<std::vector<server::Frame>, 2>, 2> templates_;
  std::counting_semaphore<>* slots_ = nullptr;
  std::atomic<bool> aborted_{false};
  std::uint64_t busy_ = 0;     // receiver-owned until joined
  bool corrupt_next_ = false;  // receiver-owned until joined
};

/// Relative, so it lands in the working directory (run.py uses the
/// build directory) and stays far below the sun_path limit.
std::string daemon_socket_path() {
  return "e2e_daemon_" + std::to_string(::getpid()) + ".sock";
}

server::DaemonConfig daemon_config(const std::string& path) {
  server::DaemonConfig config;
  config.unix_path = path;
  config.workers = 2;
  // The default 64 queued requests refuse open-loop arrivals whenever a
  // shared host stalls the workers for ~40 ms; 1024 rides out a 0.5 s
  // stall, so a refusal means the daemon fell behind, not the host.
  config.default_quota.max_queued = 1024;
  return config;
}

double setup_daemon(const Args& args) {
  const std::vector<DaemonInput> inputs = make_daemon_inputs(args.seed, 1);
  const std::string path = daemon_socket_path();
  server::Frame request;
  request.type = server::FrameType::kCompress;
  request.id = 1;
  request.tenant = kTenants[0];
  request.options = kDaemonOptions;
  request.payload = inputs[0].ocf1;

  const Timer timer;
  server::Daemon daemon(daemon_config(path));
  daemon.start();
  std::optional<server::Frame> reply;
  {
    const Socket socket(path);
    server::write_frame(socket.fd(), request);
    reply = server::read_frame(socket.fd());
  }
  const double seconds = timer.seconds();
  daemon.shutdown();
  require(reply.has_value() && reply->type == server::FrameType::kOk &&
              reply->payload == inputs[0].blob,
          "set-up reply does not match Engine::compress");
  return seconds;
}

Result run_daemon(const Args& args, SpanLog& log) {
  const std::vector<DaemonInput> inputs =
      make_daemon_inputs(args.seed, kDaemonInputs);
  Rng rng(derive_seed(args.seed, 200));
  const std::string path = daemon_socket_path();
  Result result;

  server::Daemon daemon(daemon_config(path));
  daemon.start();
  LoadGenerator load(inputs, path, log, result);

  // Warm-up: worker arenas and pools fill before anything is timed.
  {
    Traffic warm(make_draws(rng, 20000), 0);
    (void)load.closed_loop(warm, 0.3, kClosedOutstanding);
  }

  // Phase 1: open-loop Poisson arrivals, timed from the scheduled send.
  const auto n_open = static_cast<std::size_t>(kOpenRate * 0.65 * args.seconds);
  Traffic open(make_draws(rng, n_open), 1ull << 32);
  open.due_ns.resize(n_open);
  const std::uint64_t t0 = monotonic_now_ns() + 2'000'000;
  double at_s = 0.0;
  for (std::size_t i = 0; i < n_open; ++i) {
    at_s += rng.exponential(kOpenRate);
    open.due_ns[i] = t0 + static_cast<std::uint64_t>(at_s * 1e9);
  }
  Tracing tracing(log);
  if (args.self_test) load.corrupt_next_reply();
  load.open_loop(open, args.trace ? &tracing : nullptr);
  tracing.end();

  // Phase 2: closed-loop saturation. Draws are sized well past capacity.
  const double closed_s = 0.35 * args.seconds;
  Traffic closed(
      make_draws(rng, static_cast<std::size_t>(40000 * closed_s) + 1000),
      2ull << 32);
  const double max_rps =
      load.closed_loop(closed, closed_s, kClosedOutstanding);
  daemon.shutdown();

  std::vector<double> latency_ms, late_ms, traced_ms, untraced_ms;
  double traced_from_send_ms = 0.0;
  std::size_t traced_n = 0;
  for (std::size_t i = 0; i < n_open; ++i) {
    if (open.recv_ns[i] == 0) continue;
    const std::uint64_t due = open.due_ns[i];
    const std::uint64_t sent = open.sent_ns[i].load();
    const double ms = ns_to_ms(static_cast<double>(open.recv_ns[i] - due));
    latency_ms.push_back(ms);
    late_ms.push_back(ns_to_ms(static_cast<double>(sent - due)));
    const bool traced = i >= n_open / 4 && i < 3 * n_open / 4;
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) {
      traced_from_send_ms +=
          ns_to_ms(static_cast<double>(open.recv_ns[i] - sent));
      ++traced_n;
    }
  }

  auto& m = result.metrics;
  if (!args.trace) {
    m["peak_rss_mb"] = peak_rss_mb();
    m["latency_p50_ms"] = pct(latency_ms, 50);
    m["ops_per_s"] = max_rps;
    return result;
  }
  const ObsView& o = tracing.obs();
  const Usage& u = tracing.usage();
  const double requests = static_cast<double>(traced_n);
  const double engine_us =
      div_or_zero(o.ns("daemon.compress") + o.ns("daemon.decompress"),
                  o.calls("daemon.compress") + o.calls("daemon.decompress")) *
      1e-3;
  m["server.admit_us_mean"] = o.mean_us("daemon.admit");
  m["server.compress_us_mean"] = o.mean_us("daemon.compress");
  m["server.decompress_us_mean"] = o.mean_us("daemon.decompress");
  m["server.respond_us_mean"] = o.mean_us("daemon.respond");
  m["server.outside_engine_us"] =
      div_or_zero(traced_from_send_ms * 1e3, requests) - engine_us;
  m["server.client_write_us_mean"] = log.mean_us("client.write");
  m["server.client_read_us_mean"] = log.mean_us("client.read");
  m["server.cpu_ms_per_req"] = div_or_zero(u.cpu_ms, requests);
  m["server.ctx_switches_per_req"] = div_or_zero(u.ctx_switches, requests);
  m["server.busy_rejects"] = static_cast<double>(load.busy_rejects());
  m["server.latency_p99_ms"] = pct(latency_ms, 99);
  m["server.latency_p999_ms"] = pct(latency_ms, 99.9);
  m["server.latency_samples"] = static_cast<double>(latency_ms.size());
  m["server.gen_late_p99_ms"] = pct(late_ms, 99);
  m["server.gen_late_max_ms"] = pct(late_ms, 100);
  m["alloc.allocs_per_req"] = div_or_zero(u.allocs, requests);
  m["obs.overhead_pct"] = overhead_pct(untraced_ms, traced_ms);
  return result;
}

// ---------------------------------------------------------------------
// fleet-2000: the Orchestrator over seeded corridor campaign sets.
// ---------------------------------------------------------------------

constexpr std::size_t kFleetCampaigns = 2000;

std::vector<CampaignSpec> fleet_set(std::uint64_t seed, std::uint64_t index) {
  CampaignSetConfig config;
  config.count = kFleetCampaigns;
  config.seed = derive_seed(seed, 1000 + index);
  config.arrival_window_s = 60.0;
  config.profile = "corridor";
  config.inventory_stride = 64;
  return generate_campaign_set(config);
}

struct FleetRun {
  std::uint64_t events = 0;
  std::uint64_t total_ns = 0;
  bool ok = false;
  std::string rendering;
};

/// Register + run + teardown of one set; only the render is untimed.
FleetRun run_fleet(std::vector<CampaignSpec> specs, SpanLog& log,
                   std::uint64_t req, bool render) {
  FleetRun out;
  OrchestratorReport report;
  {
    SpanLog::Span whole(log, "fleet.set", req);
    {
      Orchestrator orch(fleet_pool_options());
      {
        SpanLog::Span s(log, "orchestrator.register", req);
        for (CampaignSpec& spec : specs) orch.add_campaign(std::move(spec));
      }
      SpanLog::Span s(log, "orchestrator.run", req);
      report = orch.run();
    }
    out.total_ns = whole.stop();
  }
  out.events = report.events_executed;
  out.ok = report.campaigns.size() == kFleetCampaigns &&
           report.events_executed > 0 && std::isfinite(report.makespan) &&
           report.makespan > 0.0;
  if (render) out.rendering = to_string(report);
  return out;
}

double setup_fleet(const Args& args) {
  std::vector<CampaignSpec> specs = fleet_set(args.seed, 0);
  SpanLog log;
  const Timer timer;
  const FleetRun run = run_fleet(std::move(specs), log, 0, false);
  const double seconds = timer.seconds();
  require(run.ok, "set-up fleet run produced an incomplete report");
  return seconds;
}

Result run_fleet_workload(const Args& args, SpanLog& log) {
  Result result;
  // Warm run on set 0; its rendering is the determinism reference.
  const FleetRun reference = run_fleet(fleet_set(args.seed, 0), log, 0, true);
  result.op(reference.ok);

  Tracing tracing(log);
  Window window(args.seconds, 5, args.trace ? &tracing : nullptr);
  std::vector<double> run_ms, untraced_ms, traced_ms;
  double events = 0.0;
  double total_ns = 0.0;
  double traced_events = 0.0;
  for (std::uint64_t set = 1; window.more(); ++set) {
    std::vector<CampaignSpec> specs = fleet_set(args.seed, set);
    const bool traced = window.traced();
    const FleetRun run = run_fleet(std::move(specs), log, set, false);
    result.op(run.ok);
    events += static_cast<double>(run.events);
    total_ns += static_cast<double>(run.total_ns);
    if (traced) traced_events += static_cast<double>(run.events);
    run_ms.push_back(ns_to_ms(static_cast<double>(run.total_ns)));
    (traced ? traced_ms : untraced_ms).push_back(run_ms.back());
  }

  // Determinism: set 0 again must render byte-identically.
  FleetRun again = run_fleet(fleet_set(args.seed, 0), log, 0, true);
  if (args.self_test) again.rendering += " ";
  result.op(again.ok && again.rendering == reference.rendering);

  auto& m = result.metrics;
  if (!args.trace) {
    m["peak_rss_mb"] = peak_rss_mb();
    m["latency_p50_ms"] = pct(run_ms, 50);
    m["ops_per_s"] = events / (total_ns * 1e-9);
    return result;
  }
  const ObsView& o = tracing.obs();
  m["sim.events_per_run"] = static_cast<double>(reference.events);
  m["sim.fairshare_reallocs_per_event"] =
      div_or_zero(o.count("sim.fairshare.reallocs"), o.count("sim.events"));
  m["sim.fairshare_flows_p50"] = o.quantile("sim.fairshare.flows", 0.50);
  m["sim.fairshare_flows_p99"] = o.quantile("sim.fairshare.flows", 0.99);
  m["sim.queue_depth_p99"] = o.quantile("sim.queue_depth", 0.99);
  m["orchestrator.register_ms"] =
      pct(log.durations_ms("orchestrator.register"), 50);
  m["orchestrator.run_ms_p50"] = pct(log.durations_ms("orchestrator.run"), 50);
  m["alloc.allocs_per_event"] =
      div_or_zero(tracing.usage().allocs, traced_events);
  m["obs.overhead_pct"] = overhead_pct(untraced_ms, traced_ms);
  return result;
}

// ---------------------------------------------------------------------

void print_result(const Result& r, bool correct,
                  std::span<const MetricDef> defs) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.metrics.find(defs[i].name);
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    require(std::isfinite(value),
            std::string("non-finite metric ") + defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double run_setup(const Args& args) {
  if (args.workload == "archive-1w") return setup_codec(args, {false, 1});
  if (args.workload == "adaptive-3w") return setup_codec(args, {true, 3});
  if (args.workload == "daemon-small") return setup_daemon(args);
  if (args.workload == "fleet-2000") return setup_fleet(args);
  throw InvalidArgument("unknown workload: " + args.workload);
}

Result run_workload(const Args& args, SpanLog& log) {
  if (args.workload == "archive-1w") return run_codec(args, {false, 1}, log);
  if (args.workload == "adaptive-3w") return run_codec(args, {true, 3}, log);
  if (args.workload == "daemon-small") return run_daemon(args, log);
  if (args.workload == "fleet-2000") return run_fleet_workload(args, log);
  throw InvalidArgument("unknown workload: " + args.workload);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    // Untraced runs measure the library with profiling off; a run that
    // finds it on is not measuring what it claims.
    require(!obs::profiling_enabled(), "obs profiling is on before the run");

    if (args.setup_only) {
      Result r;
      r.op(true);
      r.metrics[kSetup.name] = run_setup(args);
      print_result(r, true, {&kSetup, 1});
      return 0;
    }

    SpanLog log;
    const Result r = run_workload(args, log);
    bool correct = r.failed == 0 && r.attempted > 0;
    if (args.trace) {
      log.write_chrome("e2e_trace_" + args.workload + ".json");
      obs::write_chrome_trace_file("obs_trace_" + args.workload + ".json");
      print_result(r, correct, kPerLayer);
    } else {
      correct = correct && !obs::profiling_enabled();
      for (const MetricDef& def : kEndToEnd) {
        const auto it = r.metrics.find(def.name);
        require(it != r.metrics.end() && it->second > 0.0,
                std::string("end-to-end metric missing or zero: ") + def.name);
      }
      print_result(r, correct, kEndToEnd);
    }
    if (!correct) {
      std::cerr << "bench_e2e: " << args.workload << ": " << r.failed
                << " of " << r.attempted
                << " operations failed their output check\n";
    }
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
