#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/buffer_pool.hpp"

namespace ocelot::obs {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

template <typename T>
PoolReport pool_report(const std::string& name, const ScratchPool<T>& pool) {
  const auto s = pool.stats();
  PoolReport r;
  r.name = name;
  r.created = s.created;
  r.reused = s.reused;
  r.outstanding = s.outstanding;
  r.free = s.free;
  r.pooled_capacity_bytes = s.pooled_capacity * sizeof(T);
  r.wait_ns = s.wait_ns;
  return r;
}

}  // namespace

std::vector<PoolReport> shared_pool_reports() {
  std::vector<PoolReport> reports;
  reports.push_back(
      pool_report("buffer_pool", ScratchPool<std::uint8_t>::shared()));
  reports.push_back(
      pool_report("scratch_pool<f32>", ScratchPool<float>::shared()));
  reports.push_back(
      pool_report("scratch_pool<u32>", ScratchPool<std::uint32_t>::shared()));
  return reports;
}

void write_stats_report(std::ostream& os, bool json) {
  const MetricsSnapshot snap = metrics_snapshot();
  const std::vector<PoolReport> pools = shared_pool_reports();

  if (json) {
    os << "{\"stages\":{";
    bool first = true;
    for (const StageSnapshot& s : snap.stages) {
      if (!first) os << ",";
      first = false;
      json_string(os, s.name);
      os << ":{\"calls\":" << s.calls
         << ",\"total_ms\":" << fmt(static_cast<double>(s.total_ns) * 1e-6)
         << ",\"mean_us\":"
         << fmt(s.calls > 0 ? static_cast<double>(s.total_ns) * 1e-3 /
                                  static_cast<double>(s.calls)
                            : 0.0)
         << "}";
    }
    os << "},\"counters\":{";
    first = true;
    for (const auto& [name, value] : snap.counters) {
      if (!first) os << ",";
      first = false;
      json_string(os, name);
      os << ":" << value;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
      if (!first) os << ",";
      first = false;
      json_string(os, name);
      os << ":" << value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const HistogramSnapshot& h : snap.histograms) {
      if (!first) os << ",";
      first = false;
      json_string(os, h.name);
      os << ":{\"count\":" << h.count << ",\"mean\":" << fmt(h.mean())
         << ",\"p50\":" << fmt(h.quantile(0.5))
         << ",\"p99\":" << fmt(h.quantile(0.99)) << "}";
    }
    os << "},\"pools\":{";
    first = true;
    for (const PoolReport& p : pools) {
      if (!first) os << ",";
      first = false;
      json_string(os, p.name);
      os << ":{\"created\":" << p.created << ",\"reused\":" << p.reused
         << ",\"outstanding\":" << p.outstanding << ",\"free\":" << p.free
         << ",\"pooled_capacity_bytes\":" << p.pooled_capacity_bytes
         << ",\"wait_ms\":" << fmt(static_cast<double>(p.wait_ns) * 1e-6)
         << "}";
    }
    os << "}}\n";
    return;
  }

  if (!snap.stages.empty()) {
    // Widest-total first puts the expensive stages on top.
    std::vector<StageSnapshot> stages = snap.stages;
    std::sort(stages.begin(), stages.end(),
              [](const StageSnapshot& a, const StageSnapshot& b) {
                return a.total_ns > b.total_ns;
              });
    os << "stages (inclusive of nested stages):\n";
    for (const StageSnapshot& s : stages) {
      const double mean_us =
          s.calls > 0 ? static_cast<double>(s.total_ns) * 1e-3 /
                            static_cast<double>(s.calls)
                      : 0.0;
      os << "  " << s.name << ": calls=" << s.calls
         << " total_ms=" << fmt(static_cast<double>(s.total_ns) * 1e-6)
         << " mean_us=" << fmt(mean_us) << "\n";
    }
  }
  if (!snap.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      os << "  " << name << ": " << value << "\n";
    }
  }
  if (!snap.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : snap.gauges) {
      os << "  " << name << ": " << value << "\n";
    }
  }
  if (!snap.histograms.empty()) {
    os << "histograms (log2 buckets; quantiles are bucket-resolution):\n";
    for (const HistogramSnapshot& h : snap.histograms) {
      os << "  " << h.name << ": count=" << h.count
         << " mean=" << fmt(h.mean()) << " p50=" << fmt(h.quantile(0.5))
         << " p99=" << fmt(h.quantile(0.99)) << "\n";
    }
  }
  os << "shared pools:\n";
  for (const PoolReport& p : pools) {
    os << "  " << p.name << ": created=" << p.created
       << " reused=" << p.reused << " outstanding=" << p.outstanding
       << " free=" << p.free
       << " pooled_capacity_bytes=" << p.pooled_capacity_bytes
       << " wait_ms=" << fmt(static_cast<double>(p.wait_ns) * 1e-6) << "\n";
  }
}

}  // namespace ocelot::obs
