#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "core/json.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "mntp/engine.h"
#include "mntp/params.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::obs {
namespace {

/// Telemetry context with its profiler on, installed for the scope.
struct ProfiledScope {
  Telemetry telemetry;
  ScopedTelemetry scope{telemetry};
  ProfiledScope() { telemetry.profiler().set_enabled(true); }
};

TEST(Profiler, DisabledRecordsNothing) {
  Telemetry telemetry;  // profiler off by default
  ScopedTelemetry scope(telemetry);
  {
    ProfileScope span("test.disabled");
  }
  EXPECT_TRUE(telemetry.profiler().records().empty());
  EXPECT_EQ(telemetry.profiler().total_spans(), 0u);
}

TEST(Profiler, RecordsCompletedSpans) {
  ProfiledScope p;
  {
    ProfileScope span("test.outer");
  }
  {
    ProfileScope span("test.outer");
  }
  const auto records = p.telemetry.profiler().records();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_STREQ(r.name, "test.outer");
    EXPECT_EQ(r.depth, 0u);
    EXPECT_GE(r.dur_ns, 0);
    EXPECT_EQ(r.self_ns, r.dur_ns);  // no children
    EXPECT_FALSE(r.has_sim);
    EXPECT_GT(r.tid, 0u);
  }
}

TEST(Profiler, SimTimestampCarried) {
  ProfiledScope p;
  {
    ProfileScope span("test.sim", core::TimePoint::from_ns(1'234'567));
  }
  const auto records = p.telemetry.profiler().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].has_sim);
  EXPECT_EQ(records[0].sim_t_ns, 1'234'567);
}

TEST(Profiler, NestingComputesDepthAndSelfTime) {
  ProfiledScope p;
  {
    ProfileScope outer("test.outer");
    {
      ProfileScope inner_a("test.inner");
    }
    {
      ProfileScope inner_b("test.inner");
    }
  }
  const auto records = p.telemetry.profiler().records();
  ASSERT_EQ(records.size(), 3u);  // completion order: inner, inner, outer
  const auto& inner_a = records[0];
  const auto& inner_b = records[1];
  const auto& outer = records[2];
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner_a.depth, 1u);
  EXPECT_EQ(inner_b.depth, 1u);
  // Self time is exactly total minus the children's recorded durations.
  EXPECT_EQ(outer.self_ns, outer.dur_ns - inner_a.dur_ns - inner_b.dur_ns);
  EXPECT_GE(outer.dur_ns, inner_a.dur_ns + inner_b.dur_ns);
}

TEST(Profiler, SpanCrossingScopedTelemetryRecordsWhereItOpened) {
  Telemetry outer_telemetry;
  outer_telemetry.profiler().set_enabled(true);
  Telemetry inner_telemetry;
  inner_telemetry.profiler().set_enabled(true);
  {
    ScopedTelemetry outer_scope(outer_telemetry);
    ProfileScope outer_span("test.crossing.outer");
    {
      // The context switches mid-span: the outer span must still record
      // into outer_telemetry (pinned at open), the inner into
      // inner_telemetry, and self-time accounting must bridge the two.
      ScopedTelemetry inner_scope(inner_telemetry);
      ProfileScope inner_span("test.crossing.inner");
    }
  }
  const auto outer_records = outer_telemetry.profiler().records();
  const auto inner_records = inner_telemetry.profiler().records();
  ASSERT_EQ(outer_records.size(), 1u);
  ASSERT_EQ(inner_records.size(), 1u);
  EXPECT_STREQ(outer_records[0].name, "test.crossing.outer");
  EXPECT_STREQ(inner_records[0].name, "test.crossing.inner");
  EXPECT_EQ(inner_records[0].depth, 1u);
  EXPECT_EQ(outer_records[0].self_ns,
            outer_records[0].dur_ns - inner_records[0].dur_ns);
}

TEST(Profiler, AggregatesAcrossThreadPoolWorkers) {
  ProfiledScope p;
  constexpr std::size_t kTasks = 64;
  {
    core::ThreadPool pool(4);
    pool.parallel_for(0, kTasks, [](std::size_t) {
      ProfileScope span("test.worker");
      ProfileScope nested("test.worker.nested");
    });
  }
  const auto stats = p.telemetry.profiler().stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "test.worker");
  EXPECT_EQ(stats[0].count, kTasks);
  EXPECT_EQ(stats[1].name, "test.worker.nested");
  EXPECT_EQ(stats[1].count, kTasks);
  // Every span got a valid per-thread id and consistent nesting depth,
  // regardless of which worker ran it.
  for (const auto& r : p.telemetry.profiler().records()) {
    EXPECT_GT(r.tid, 0u);
    EXPECT_EQ(r.depth, r.name == std::string("test.worker") ? 0u : 1u);
  }
}

TEST(Profiler, StatsAggregateMatchesRecords) {
  ProfiledScope p;
  for (int i = 0; i < 10; ++i) {
    ProfileScope span("test.agg");
  }
  const auto records = p.telemetry.profiler().records();
  const auto stats = p.telemetry.profiler().stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 10u);
  std::int64_t total = 0, min = records[0].dur_ns, max = records[0].dur_ns;
  for (const auto& r : records) {
    total += r.dur_ns;
    min = std::min(min, r.dur_ns);
    max = std::max(max, r.dur_ns);
  }
  EXPECT_EQ(stats[0].total_ns, total);
  EXPECT_EQ(stats[0].min_ns, min);
  EXPECT_EQ(stats[0].max_ns, max);
  EXPECT_LE(stats[0].min_ns, stats[0].max_ns);
}

TEST(Profiler, RecordCapCountsDroppedButKeepsAggregates) {
  Profiler profiler(Profiler::Options{.max_records = 4});
  for (int i = 0; i < 10; ++i) {
    profiler.record(Profiler::SpanRecord{
        .name = "test.cap", .tid = 1, .dur_ns = 100, .self_ns = 100});
  }
  EXPECT_EQ(profiler.records().size(), 4u);
  EXPECT_EQ(profiler.dropped(), 6u);
  EXPECT_EQ(profiler.total_spans(), 10u);
  const auto stats = profiler.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 10u);  // aggregates see every span
}

TEST(Profiler, P50WithinHdrBoundOfExactMedian) {
  // The p50 comes from an HDR histogram of durations in microseconds: it
  // must land within the 2^-6 relative bound of the exact median for
  // spans from tens of nanoseconds up to minutes.
  for (const auto& [lo_ns, hi_ns] :
       {std::pair{50.0, 2e11}, std::pair{1e7, 9e11}}) {
    std::vector<std::int64_t> durs;
    for (int i = 0; i <= 100; ++i) {
      durs.push_back(static_cast<std::int64_t>(
          lo_ns * std::pow(hi_ns / lo_ns, i / 100.0)));
    }
    Profiler profiler;
    for (int i = 0; i <= 100; ++i) {  // 37 is coprime to 101: a permutation
      const std::int64_t d = durs[static_cast<std::size_t>(i * 37 % 101)];
      profiler.record(Profiler::SpanRecord{
          .name = "test.p50", .tid = 1, .dur_ns = d, .self_ns = d});
    }
    const double exact = static_cast<double>(durs[50]);
    const auto stats = profiler.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_NEAR(stats[0].p50_ns, exact, exact / 64.0) << "lo_ns=" << lo_ns;
  }
}

TEST(Profiler, ExportToMetricsPublishesGauges) {
  ProfiledScope p;
  {
    ProfileScope span("test.export");
  }
  p.telemetry.profiler().export_to_metrics(p.telemetry.metrics());
  const Labels labels{{"span", "test.export"}};
  Gauge* count = p.telemetry.metrics().gauge("profile.span.count", labels);
  EXPECT_EQ(count->value(), 1.0);
  Gauge* total =
      p.telemetry.metrics().gauge("profile.span.total_wall_us", labels);
  EXPECT_GE(total->value(), 0.0);
}

TEST(Profiler, ChromeTraceIsValidJsonWithExpectedShape) {
  ProfiledScope p;
  {
    ProfileScope outer("test.trace.outer",
                       core::TimePoint::from_ns(5'000'000'000));
    ProfileScope inner("test.trace.inner");
  }
  std::ostringstream out;
  write_chrome_trace(out, p.telemetry.profiler(), "unit_test");
  const auto doc = core::Json::parse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const core::Json& root = doc.value();
  EXPECT_EQ(root["otherData"]["run"].as_string(), "unit_test");
  const auto& events = root["traceEvents"].as_array();
  ASSERT_EQ(events.size(), 3u);  // process_name metadata + 2 spans
  EXPECT_EQ(events[0]["ph"].as_string(), "M");
  EXPECT_EQ(events[0]["args"]["name"].as_string(), "unit_test");
  bool saw_outer = false;
  for (const core::Json& e : events) {
    if (e["ph"].as_string() != "X") continue;
    EXPECT_EQ(e["cat"].as_string(), "span");
    EXPECT_GE(e["dur"].as_double(), 0.0);
    EXPECT_LE(e["args"]["self_us"].as_double(), e["dur"].as_double() + 1e-3);
    if (e["name"].as_string() == "test.trace.outer") {
      saw_outer = true;
      EXPECT_EQ(e["args"]["sim_t_ns"].as_int(), 5'000'000'000);
      EXPECT_EQ(e["args"]["depth"].as_int(), 0);
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST(Profiler, ClearResetsEverythingButEnabled) {
  ProfiledScope p;
  {
    ProfileScope span("test.clear");
  }
  p.telemetry.profiler().clear();
  EXPECT_TRUE(p.telemetry.profiler().records().empty());
  EXPECT_TRUE(p.telemetry.profiler().stats().empty());
  EXPECT_EQ(p.telemetry.profiler().total_spans(), 0u);
  EXPECT_TRUE(p.telemetry.profiler().enabled());
}

// The acceptance bar for the whole profiler: enabling it must not
// change any simulated result. Run identical engine workloads with the
// profiler off and on; every reported offset must be bit-identical.
TEST(Profiler, EnablingDoesNotChangeSimulatedResults) {
  const auto run = [](bool profile) {
    Telemetry telemetry;
    telemetry.profiler().set_enabled(profile);
    ScopedTelemetry scope(telemetry);
    protocol::MntpEngine engine(protocol::head_to_head_params(),
                                core::TimePoint::epoch());
    core::Rng rng(42);
    std::int64_t t = 0;
    std::vector<double> offsets(1);
    for (int i = 0; i < 500; ++i) {
      t += 5'000'000'000;
      offsets[0] = rng.normal(0, 0.003);
      engine.on_round(core::TimePoint::from_ns(t), offsets);
    }
    return engine.accepted_offsets_ms();
  };
  const std::vector<double> baseline = run(false);
  const std::vector<double> profiled = run(true);
  ASSERT_EQ(baseline.size(), profiled.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i], profiled[i]) << "diverged at round " << i;
  }
}

}  // namespace
}  // namespace mntp::obs
