// Tests for the observability subsystem: concurrent metric recording
// into per-thread shards (including the retired-shard fold when
// threads exit), histogram bucketing and quantiles, trace-ring
// wraparound, Chrome trace-event JSON structure, the stats report, and
// the guarantee that observation never changes compressed bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "compressor/compressor.hpp"
#include "exec/parallel_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace ocelot {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    obs::clear_trace();
    obs::set_profiling(false);
    obs::reset_metrics();
  }
};

FloatArray smooth_field(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray data(shape);
  double walk = 0.0;
  for (float& v : data.values()) {
    walk += rng.normal(0.0, 0.05);
    v = static_cast<float>(walk);
  }
  return data;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [k, v] : snap.counters) {
    if (k == name) return v;
  }
  return 0;
}

const obs::HistogramSnapshot* find_histogram(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const obs::StageSnapshot* find_stage(const obs::MetricsSnapshot& snap,
                                     const std::string& name) {
  for (const auto& s : snap.stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Minimal structural JSON check: braces/brackets balance outside of
/// strings, string escapes are honored, and the document is a single
/// object. Enough to catch a malformed exporter without a parser.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return stack.empty() && !in_string;
}

TEST_F(ObsTest, ConcurrentHammeringMergesExactly) {
  obs::set_profiling(true);
  const obs::MetricId c = obs::counter_id("test.hammer");
  const obs::MetricId h = obs::histogram_id("test.hammer_hist");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        obs::counter_add(c, 1);
        obs::histogram_record(h, i);
      }
    });
  }
  for (auto& t : threads) t.join();

  // The writer threads exited, so this also covers the fold of dying
  // threads' shards into the retired aggregate: nothing may be lost.
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "test.hammer"), kThreads * kIters);
  const obs::HistogramSnapshot* hist =
      find_histogram(snap, "test.hammer_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kIters);
  EXPECT_EQ(hist->sum, kThreads * (kIters * (kIters - 1) / 2));
}

TEST_F(ObsTest, HistogramBucketsAndQuantiles) {
  obs::set_profiling(true);
  const obs::MetricId h = obs::histogram_id("test.buckets");
  obs::histogram_record(h, 0);  // bucket 0: exactly zero
  obs::histogram_record(h, 1);  // bucket 1: [1, 2)
  obs::histogram_record(h, 2);  // bucket 2: [2, 4)
  obs::histogram_record(h, 3);  // bucket 2
  obs::histogram_record(h, 100);  // bucket 7: [64, 128)

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::HistogramSnapshot* hist = find_histogram(snap, "test.buckets");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_EQ(hist->sum, 106u);
  EXPECT_EQ(hist->buckets[0], 1u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[2], 2u);
  EXPECT_EQ(hist->buckets[7], 1u);
  // Quantiles resolve to the geometric bucket midpoint.
  EXPECT_DOUBLE_EQ(hist->quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist->quantile(0.99), 96.0);  // mid of [64, 128)
  EXPECT_NEAR(hist->mean(), 106.0 / 5.0, 1e-12);
}

TEST_F(ObsTest, GaugesTrackLastValue) {
  obs::set_profiling(true);
  const obs::MetricId g = obs::gauge_id("test.level");
  obs::gauge_set(g, 10);
  obs::gauge_add(g, -3);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "test.level");
  EXPECT_EQ(snap.gauges[0].second, 7);
}

TEST_F(ObsTest, SpansAccumulateOnlyWhileProfiling) {
  {
    OCELOT_SPAN("test.idle_span");  // profiling off: must not record
  }
  obs::set_profiling(true);
  for (int i = 0; i < 10; ++i) {
    OCELOT_SPAN("test.span");
  }
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::StageSnapshot* idle = find_stage(snap, "test.idle_span");
  EXPECT_TRUE(idle == nullptr || idle->calls == 0);
  const obs::StageSnapshot* active = find_stage(snap, "test.span");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->calls, 10u);
}

TEST_F(ObsTest, RingWrapsAroundKeepingNewestEvents) {
  obs::start_tracing(/*events_per_thread=*/16);
  for (int i = 0; i < 100; ++i) {
    OCELOT_SPAN("test.wrap");
  }
  obs::stop_tracing();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  // The ring holds the newest 16 of 100 spans; the stage counter saw
  // all 100.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"test.wrap\""), 16u);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::StageSnapshot* stage = find_stage(snap, "test.wrap");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->calls, 100u);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  obs::start_tracing(1 << 10);
  {
    OCELOT_SPAN("test.real_span");
  }
  std::thread worker([] {
    OCELOT_SPAN("test.worker_span");
  });
  worker.join();
  obs::emit_sim_span("campaign-A", "transfer", 0.5, 1.5);
  obs::stop_tracing();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete events with real + sim processes and their metadata.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.real_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Sim seconds render as microseconds: 0.5 s -> ts 500000, dur 1e6.
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
}

TEST_F(ObsTest, ClearTraceDropsEvents) {
  obs::start_tracing(1 << 10);
  {
    OCELOT_SPAN("test.dropped");
  }
  obs::emit_sim_span("t", "dropped_sim", 0.0, 1.0);
  obs::stop_tracing();
  obs::clear_trace();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("test.dropped"), std::string::npos);
  EXPECT_EQ(json.find("dropped_sim"), std::string::npos);
}

TEST_F(ObsTest, ObservationNeverChangesBytes) {
  // The core contract: profiling/tracing may watch the pipeline but
  // the compressed bytes must be identical with observation on or
  // off.
  const FloatArray field = smooth_field(Shape(24, 10, 7), 17);
  CompressionConfig config;
  config.backend = "sz3-interp";
  config.eb_mode = EbMode::kValueRangeRel;
  config.eb = 1e-3;

  const Bytes quiet = block_compress(field, config, 2, 4).container;

  obs::start_tracing(1 << 12);
  const Bytes observed = block_compress(field, config, 2, 4).container;
  obs::stop_tracing();

  EXPECT_EQ(quiet, observed);
}

TEST_F(ObsTest, StatsReportRendersInBothModes) {
  obs::set_profiling(true);
  {
    OCELOT_SPAN("test.report_span");
  }
  OCELOT_COUNT("test.report_counter", 3);

  std::ostringstream json_os;
  obs::write_stats_report(json_os, /*json=*/true);
  const std::string json = json_os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"pools\""), std::string::npos);
  // The pool rows keep their names; the byte pool is "buffer_pool".
  EXPECT_NE(json.find("\"buffer_pool\""), std::string::npos);
  EXPECT_NE(json.find("\"scratch_pool<f32>\""), std::string::npos);
  EXPECT_NE(json.find("\"scratch_pool<u32>\""), std::string::npos);
  EXPECT_NE(json.find("test.report_span"), std::string::npos);
  EXPECT_NE(json.find("test.report_counter"), std::string::npos);

  std::ostringstream human_os;
  obs::write_stats_report(human_os, /*json=*/false);
  EXPECT_NE(human_os.str().find("shared pools:"), std::string::npos);
}

}  // namespace
}  // namespace ocelot
