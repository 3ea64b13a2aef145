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
#include "support/read_back.h"

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
  EXPECT_TRUE(telemetry.profiler().stats().empty());
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
  const auto stats = p.telemetry.profiler().stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "test.outer");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_GE(stats[0].total_ns, 0);
  EXPECT_EQ(stats[0].self_ns, stats[0].total_ns);  // no children
  EXPECT_LE(stats[0].min_ns, stats[0].max_ns);
  EXPECT_EQ(p.telemetry.profiler().total_spans(), 2u);
}

TEST(Profiler, NestingComputesSelfTime) {
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
  const auto stats = p.telemetry.profiler().stats();
  ASSERT_EQ(stats.size(), 2u);  // name-sorted: inner, outer
  const auto& inner = stats[0];
  const auto& outer = stats[1];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_EQ(outer.name, "test.outer");
  // Self time is exactly total minus the children's recorded durations.
  EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
  EXPECT_GE(outer.total_ns, inner.total_ns);
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
  const auto outer_stats = outer_telemetry.profiler().stats();
  const auto inner_stats = inner_telemetry.profiler().stats();
  ASSERT_EQ(outer_stats.size(), 1u);
  ASSERT_EQ(inner_stats.size(), 1u);
  EXPECT_EQ(outer_stats[0].name, "test.crossing.outer");
  EXPECT_EQ(inner_stats[0].name, "test.crossing.inner");
  EXPECT_EQ(outer_stats[0].self_ns,
            outer_stats[0].total_ns - inner_stats[0].total_ns);
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
  // Every worker thread kept its own span stack: each nested span was
  // charged to its own thread's parent, whichever worker ran it.
  EXPECT_EQ(stats[0].self_ns, stats[0].total_ns - stats[1].total_ns);
}

TEST(Profiler, StatsAggregateMatchesRecords) {
  Profiler profiler;
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < 10; ++i) {
    const std::int64_t dur = 1000 + (i * 7919) % 10 * 100;  // 1000..1900
    profiler.record("test.agg", dur, dur / 2);
    total += dur;
  }
  const auto stats = profiler.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 10u);
  EXPECT_EQ(stats[0].total_ns, total);
  EXPECT_EQ(stats[0].self_ns, total / 2);
  EXPECT_EQ(stats[0].min_ns, 1000);
  EXPECT_EQ(stats[0].max_ns, 1900);
  EXPECT_EQ(profiler.total_spans(), 10u);
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
      profiler.record("test.p50", d, d);
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
    ProfileScope outer("test.trace.outer");
    ProfileScope inner("test.trace.inner");
  }
  std::ostringstream out;
  write_chrome_trace(out, p.telemetry.profiler(), "unit_test");
  const auto doc = core::Json::parse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const core::Json& root = doc.value();
  EXPECT_EQ(root["otherData"]["run"].as_string(), "unit_test");
  EXPECT_EQ(root["otherData"]["span_count"].as_int(), 2);
  const auto& events = root["traceEvents"].as_array();
  ASSERT_EQ(events.size(), 3u);  // process_name metadata + 2 span names
  EXPECT_EQ(events[0]["ph"].as_string(), "M");
  EXPECT_EQ(events[0]["args"]["name"].as_string(), "unit_test");
  // One aggregate event per span name, name-sorted, laid end to end.
  EXPECT_EQ(events[1]["name"].as_string(), "test.trace.inner");
  EXPECT_EQ(events[2]["name"].as_string(), "test.trace.outer");
  EXPECT_GE(events[2]["ts"].as_double(),
            events[1]["ts"].as_double() + events[1]["dur"].as_double());
  for (std::size_t i = 1; i < events.size(); ++i) {
    const core::Json& e = events[i];
    EXPECT_EQ(e["ph"].as_string(), "X");
    EXPECT_EQ(e["cat"].as_string(), "aggregate");
    EXPECT_EQ(e["pid"].as_int(), 1);
    EXPECT_EQ(e["tid"].as_int(), 1);
    EXPECT_GE(e["dur"].as_double(), 0.0);
    const core::Json& args = e["args"];
    EXPECT_LE(args["self_us"].as_double(), e["dur"].as_double());
    EXPECT_EQ(args["depth"].as_int(), 0);
    EXPECT_EQ(args["agg_count"].as_int(), 1);
    EXPECT_LE(args["min_us"].as_double(), args["max_us"].as_double());
    EXPECT_TRUE(args.has("p50_us"));
  }

  // The reader folds each event into its span's aggregate.
  const ArtifactFile file = test::read_back("chrome_trace.json", out.str());
  EXPECT_EQ(file.kind, ArtifactKind::kProfile);
  EXPECT_EQ(file.run, "unit_test");
  ASSERT_EQ(file.profile.spans.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const core::Json& e = events[i];
    const SpanAggregate& span = file.profile.spans.at(e["name"].as_string());
    EXPECT_EQ(span.count, e["args"]["agg_count"].as_double());
    EXPECT_EQ(span.total_us, e["dur"].as_double());
    EXPECT_EQ(span.self_us, e["args"]["self_us"].as_double());
    EXPECT_TRUE(span.has_range);
    EXPECT_EQ(span.min_us, e["args"]["min_us"].as_double());
    EXPECT_EQ(span.max_us, e["args"]["max_us"].as_double());
  }
}

TEST(Profiler, ChromeTraceHasOneEventPerSpanName) {
  // The export size depends on the span names, not the span count:
  // 10,000 spans of one name export as one event with exact sums.
  Profiler profiler;
  for (int i = 0; i < 10'000; ++i) {
    profiler.record("test.many", 1500 + (i % 2) * 1000, 1000);
  }
  std::ostringstream out;
  write_chrome_trace(out, profiler, "many");
  const auto doc = core::Json::parse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const auto& events = doc.value()["traceEvents"].as_array();
  ASSERT_EQ(events.size(), 2u);
  const core::Json& e = events[1];
  EXPECT_EQ(e["name"].as_string(), "test.many");
  EXPECT_DOUBLE_EQ(e["dur"].as_double(), 5000 * 1.5 + 5000 * 2.5);
  EXPECT_DOUBLE_EQ(e["args"]["self_us"].as_double(), 10'000 * 1.0);
  EXPECT_EQ(e["args"]["agg_count"].as_int(), 10'000);
  EXPECT_DOUBLE_EQ(e["args"]["min_us"].as_double(), 1.5);
  EXPECT_DOUBLE_EQ(e["args"]["max_us"].as_double(), 2.5);
  EXPECT_LT(out.str().size(), 1024u);
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
