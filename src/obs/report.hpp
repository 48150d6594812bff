#pragma once
// Human- and machine-readable rendering of the observability state:
// per-stage timings, counters, gauges, histogram quantiles, and the
// shared buffer/scratch pool statistics. Backs `ocelot stats`, the
// `stats=1` CLI flag, and the per-bench stage breakdown stamped by
// bench_common.

#include <iosfwd>

#include "obs/metrics.hpp"

namespace ocelot::obs {

/// One pool's stats row, decoupled from the pool template.
struct PoolReport {
  std::string name;
  std::size_t created = 0;
  std::size_t reused = 0;
  std::size_t outstanding = 0;
  std::size_t free = 0;
  std::size_t pooled_capacity_bytes = 0;
  std::uint64_t wait_ns = 0;
};

/// Stats rows for the process-wide shared pools (byte buffers plus
/// the float / u32 element scratch the codec cycles through).
[[nodiscard]] std::vector<PoolReport> shared_pool_reports();

/// Renders the current metrics snapshot + shared pool stats. With
/// `json` a single stable JSON object; otherwise aligned tables.
void write_stats_report(std::ostream& os, bool json);

}  // namespace ocelot::obs
