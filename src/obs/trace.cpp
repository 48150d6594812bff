#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/error.hpp"

namespace ocelot::obs {

namespace detail {
std::atomic<bool> g_profiling{false};
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// One recorded span slot. All fields are relaxed atomics so a
/// snapshot taken while writers are mid-push is a data-race-free read
/// of possibly half-updated (skippable) slots, not undefined behavior.
struct RingEvent {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
};

/// Fixed-capacity overwrite-oldest event buffer for one thread track.
struct Ring {
  explicit Ring(std::size_t capacity, std::uint32_t tid_)
      : events(capacity), tid(tid_) {}

  std::vector<RingEvent> events;
  std::atomic<std::uint64_t> head{0};  ///< total events ever pushed
  std::uint32_t tid;

  void push(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::uint64_t slot = head.fetch_add(1, kRelaxed);
    RingEvent& e = events[slot % events.size()];
    e.start_ns.store(start_ns, kRelaxed);
    e.dur_ns.store(end_ns - start_ns, kRelaxed);
    e.name.store(name, kRelaxed);
  }
};

struct SimEvent {
  std::string track;
  std::string name;
  double start_s;
  double end_s;
};

struct TraceState {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;  ///< all rings ever made
  std::vector<Ring*> free_rings;   ///< parked by exited threads
  std::uint32_t next_tid = 1;
  std::size_t ring_capacity = 1 << 15;
  std::uint64_t epoch_ns = 0;  ///< ts origin for the real timeline
  std::vector<SimEvent> sim_events;
};

/// Leaked: thread_local ring holders run during static destruction.
TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

/// Leases a ring for the thread's lifetime; parks it (data intact,
/// ready for reuse by the next new thread) on thread exit. Rings are
/// only created while tracing is on.
struct RingHolder {
  Ring* ring = nullptr;

  Ring* get() {
    if (ring == nullptr) {
      TraceState& st = state();
      const std::scoped_lock lock(st.mu);
      if (!st.free_rings.empty()) {
        ring = st.free_rings.back();
        st.free_rings.pop_back();
      } else {
        st.rings.push_back(std::make_unique<Ring>(st.ring_capacity,
                                                  st.next_tid++));
        ring = st.rings.back().get();
      }
    }
    return ring;
  }

  ~RingHolder() {
    if (ring == nullptr) return;
    TraceState& st = state();
    const std::scoped_lock lock(st.mu);
    st.free_rings.push_back(ring);
  }
};

thread_local RingHolder t_ring;

void json_escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
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
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
}

struct EventWriter {
  std::ostream& os;
  bool first = true;

  void sep() {
    if (!first) os << ",\n";
    first = false;
  }

  void complete(const char* name, int pid, std::uint32_t tid, double ts_us,
                double dur_us) {
    sep();
    os << R"({"name":")";
    json_escape(os, name);
    os << R"(","ph":"X","pid":)" << pid << R"(,"tid":)" << tid << R"(,"ts":)"
       << ts_us << R"(,"dur":)" << dur_us << "}";
  }

  void metadata(const char* kind, int pid, std::uint32_t tid,
                const char* value) {
    sep();
    os << R"({"name":")" << kind << R"(","ph":"M","pid":)" << pid
       << R"(,"tid":)" << tid << R"(,"args":{"name":")";
    json_escape(os, value);
    os << R"("}})";
  }
};

}  // namespace

namespace detail {

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  t_ring.get()->push(name, start_ns, end_ns);
}

}  // namespace detail

void set_profiling(bool on) {
  detail::g_profiling.store(on, kRelaxed);
  if (!on) detail::g_tracing.store(false, kRelaxed);
}

void start_tracing(std::size_t events_per_thread) {
  require(events_per_thread > 0, "obs: trace ring capacity must be > 0");
  clear_trace();
  {
    TraceState& st = state();
    const std::scoped_lock lock(st.mu);
    st.ring_capacity = events_per_thread;
    st.epoch_ns = monotonic_now_ns();
  }
  detail::g_profiling.store(true, kRelaxed);
  detail::g_tracing.store(true, kRelaxed);
}

void stop_tracing() { detail::g_tracing.store(false, kRelaxed); }

void clear_trace() {
  detail::g_tracing.store(false, kRelaxed);
  TraceState& st = state();
  const std::scoped_lock lock(st.mu);
  // Rings leased by live threads must survive; just reset their
  // cursors. Parked rings can be dropped entirely.
  std::vector<std::unique_ptr<Ring>> kept;
  for (auto& ring : st.rings) {
    const bool parked = std::find(st.free_rings.begin(), st.free_rings.end(),
                                  ring.get()) != st.free_rings.end();
    if (parked) continue;
    ring->head.store(0, kRelaxed);
    for (auto& e : ring->events) e.name.store(nullptr, kRelaxed);
    kept.push_back(std::move(ring));
  }
  st.rings = std::move(kept);
  st.free_rings.clear();
  st.sim_events.clear();
}

void emit_sim_span(const std::string& track, const std::string& name,
                   double start_s, double end_s) {
  if (!tracing_enabled()) return;
  TraceState& st = state();
  const std::scoped_lock lock(st.mu);
  st.sim_events.push_back({track, name, start_s, end_s});
}

void write_chrome_trace(std::ostream& os) {
  TraceState& st = state();
  const std::scoped_lock lock(st.mu);

  const auto old_precision = os.precision(15);
  os << "{\"traceEvents\":[\n";
  EventWriter w{os};
  w.metadata("process_name", 1, 0, "ocelot (real time)");
  if (!st.sim_events.empty()) {
    w.metadata("process_name", 2, 0, "ocelot sim (virtual time)");
  }

  // Real timeline: pid 1, one tid per ring, ts/dur in microseconds.
  for (const auto& ring : st.rings) {
    const std::uint64_t pushed = ring->head.load(kRelaxed);
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            pushed, ring->events.size()));
    for (std::size_t i = 0; i < n; ++i) {
      const RingEvent& e = ring->events[i];
      const char* name = e.name.load(kRelaxed);
      if (name == nullptr) continue;  // slot claimed but not filled yet
      const std::uint64_t start = e.start_ns.load(kRelaxed);
      const double ts_us =
          (static_cast<double>(start) - static_cast<double>(st.epoch_ns)) *
          1e-3;
      const double dur_us =
          static_cast<double>(e.dur_ns.load(kRelaxed)) * 1e-3;
      w.complete(name, 1, ring->tid, ts_us, dur_us);
    }
  }

  // Sim timeline: pid 2, one tid per track name, sim seconds scaled
  // to render as microseconds (Perfetto has no unitless mode).
  std::vector<std::string> tracks;
  for (const SimEvent& e : st.sim_events) {
    if (std::find(tracks.begin(), tracks.end(), e.track) == tracks.end()) {
      tracks.push_back(e.track);
    }
  }
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    w.metadata("thread_name", 2, static_cast<std::uint32_t>(t + 1),
               tracks[t].c_str());
  }
  for (const SimEvent& e : st.sim_events) {
    const auto t = static_cast<std::uint32_t>(
        std::find(tracks.begin(), tracks.end(), e.track) - tracks.begin() + 1);
    w.complete(e.name.c_str(), 2, t, e.start_s * 1e6,
               (e.end_s - e.start_s) * 1e6);
  }

  os << "\n]}\n";
  os.precision(old_precision);
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  require(out.good(), "obs: cannot open trace output file: " + path);
  write_chrome_trace(out);
  out.flush();
  require(out.good(), "obs: failed writing trace output file: " + path);
}

}  // namespace ocelot::obs
