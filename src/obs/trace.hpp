#pragma once
// RAII trace spans, per-thread event rings, and the Chrome
// trace-event / Perfetto JSON exporter.
//
// Two independent runtime switches, both relaxed-atomic flag loads on
// the hot path:
//   - profiling: spans accumulate per-stage call counts and durations
//     into the MetricsRegistry (obs/metrics.hpp). Off by default so
//     an enabled build that never asks for stats pays one predictable
//     branch per span.
//   - tracing: spans additionally record (name, start, duration) into
//     a preallocated per-thread ring buffer for export as a Chrome
//     trace-event JSON file (load in Perfetto UI / chrome://tracing).
//     start_tracing() implies profiling.
//
// Rings are owned by the trace state, not the thread: when a
// short-lived parallel_for worker exits, its ring is parked on a free
// list and handed to the next new thread, so memory is bounded by the
// peak concurrent thread count and no events are lost.
//
// Sim-time adapter: emit_sim_span() records spans on a separate
// virtual-timeline process (pid 2) whose timestamps are sim seconds,
// letting orchestrator campaigns render next to (not interleaved
// with) real wall-time spans.
//
// Call sites use the macros at the bottom.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace ocelot::obs {

namespace detail {
extern std::atomic<bool> g_profiling;
extern std::atomic<bool> g_tracing;

/// Append one completed span to the calling thread's ring. `name`
/// must outlive the trace (the macros pass string literals).
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);
}  // namespace detail

[[nodiscard]] inline bool profiling_enabled() {
  return detail::g_profiling.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Master switch for span timing + metric recording.
void set_profiling(bool on);

/// Start recording spans into per-thread rings of `events_per_thread`
/// slots (oldest events overwritten on wraparound). Implies
/// set_profiling(true). Re-starting clears previous events.
void start_tracing(std::size_t events_per_thread = 1 << 15);

/// Stop recording (profiling stays on); recorded events are kept for
/// export until clear_trace() or the next start_tracing().
void stop_tracing();

/// Drop all recorded real + sim events and release the rings.
void clear_trace();

/// Record a span on the virtual (sim-time) timeline; start/end are
/// sim seconds. `track` names the row (e.g. a node or campaign).
/// Recorded whenever tracing is on; thread-safe.
void emit_sim_span(const std::string& track, const std::string& name,
                   double start_s, double end_s);

/// Serialize everything recorded so far as Chrome trace-event JSON
/// (Perfetto-loadable): pid 1 = real timeline (µs), pid 2 = sim
/// timeline (sim seconds rendered as µs).
void write_chrome_trace(std::ostream& os);
void write_chrome_trace_file(const std::string& path);

/// RAII span: times the enclosed scope into stage `stage` and, when
/// tracing, into the thread's event ring. Constructed via
/// OCELOT_SPAN; inert when profiling is off.
class TraceSpan {
 public:
  TraceSpan(const char* name, MetricId stage)
      : name_(name),
        stage_(stage),
        active_(profiling_enabled()),
        start_ns_(active_ ? monotonic_now_ns() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (!active_) return;
    const std::uint64_t end_ns = monotonic_now_ns();
    stage_add(stage_, end_ns - start_ns_);
    if (tracing_enabled()) detail::record_span(name_, start_ns_, end_ns);
  }

 private:
  const char* name_;
  MetricId stage_;
  bool active_;
  std::uint64_t start_ns_;
};

}  // namespace ocelot::obs

// --- instrumentation macros ------------------------------------------
// OCELOT_SPAN("codec.predict_quantize"); times the enclosing scope.
// OCELOT_COUNT("codec.raw_bytes", n); adds n to a counter.
// OCELOT_HIST("exec.wave_us", v); records v into a histogram.
// OCELOT_GAUGE_ADD("exec.queue_depth", d); moves a level gauge.
// Names must be string literals (or otherwise immortal). The dense
// metric id is resolved once per call site and cached in a
// function-local static; when profiling is off each macro costs one
// relaxed load + branch.

#define OCELOT_CONCAT2(a, b) a##b
#define OCELOT_CONCAT(a, b) OCELOT_CONCAT2(a, b)

#define OCELOT_SPAN(name)                                                     \
  static const ::ocelot::obs::MetricId OCELOT_CONCAT(                         \
      ocelot_obs_sid_, __LINE__) = ::ocelot::obs::stage_id(name);             \
  const ::ocelot::obs::TraceSpan OCELOT_CONCAT(ocelot_obs_span_, __LINE__)(   \
      name, OCELOT_CONCAT(ocelot_obs_sid_, __LINE__))

#define OCELOT_COUNT(name, delta)                                             \
  do {                                                                        \
    if (::ocelot::obs::profiling_enabled()) {                                 \
      static const ::ocelot::obs::MetricId ocelot_obs_cid =                   \
          ::ocelot::obs::counter_id(name);                                    \
      ::ocelot::obs::counter_add(ocelot_obs_cid,                              \
                                 static_cast<std::uint64_t>(delta));          \
    }                                                                         \
  } while (0)

#define OCELOT_HIST(name, value)                                              \
  do {                                                                        \
    if (::ocelot::obs::profiling_enabled()) {                                 \
      static const ::ocelot::obs::MetricId ocelot_obs_hid =                   \
          ::ocelot::obs::histogram_id(name);                                  \
      ::ocelot::obs::histogram_record(ocelot_obs_hid,                         \
                                      static_cast<std::uint64_t>(value));     \
    }                                                                         \
  } while (0)

#define OCELOT_GAUGE_ADD(name, delta)                                         \
  do {                                                                        \
    if (::ocelot::obs::profiling_enabled()) {                                 \
      static const ::ocelot::obs::MetricId ocelot_obs_gid =                   \
          ::ocelot::obs::gauge_id(name);                                      \
      ::ocelot::obs::gauge_add(ocelot_obs_gid,                                \
                               static_cast<std::int64_t>(delta));             \
    }                                                                         \
  } while (0)
