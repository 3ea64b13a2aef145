#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/json.h"
#include "core/time.h"
#include "obs/metrics.h"
#include "support/read_back.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

namespace mntp::obs {
namespace {

using core::Duration;
using core::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::epoch() + Duration::from_seconds(s);
}

TEST(TimeSeriesRecorder, DisabledRegistrationIsInert) {
  TimeSeriesRecorder rec;  // enabled() defaults to false
  ProbeHandle h = rec.probe("x", {}, [](TimePoint) { return 1.0; });
  EXPECT_FALSE(h.active());
  rec.sample(at_s(1));
  EXPECT_EQ(rec.series_count(), 0u);
  EXPECT_EQ(rec.samples_taken(), 0u);
}

TEST(TimeSeriesRecorder, SamplesCallbackProbe) {
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  double value = 10.0;
  ProbeHandle h = rec.probe("x", {{"k", "v"}},
                            [&](TimePoint) { return value; });
  ASSERT_TRUE(h.active());
  rec.sample(at_s(1));
  value = 30.0;
  rec.sample(at_s(2));
  const auto series = rec.series();
  ASSERT_EQ(series.size(), 1u);
  const TimeSeries& s = *series[0];
  EXPECT_EQ(s.name(), "x");
  EXPECT_EQ(s.probe_kind(), "callback");
  ASSERT_EQ(s.points().size(), 2u);
  EXPECT_EQ(s.points()[0].t_ns, at_s(1).ns());
  EXPECT_DOUBLE_EQ(s.points()[0].last, 10.0);
  EXPECT_DOUBLE_EQ(s.points()[1].last, 30.0);
  EXPECT_EQ(s.samples(), 2u);
}

TEST(TimeSeriesRecorder, NulloptSkipsTheSample) {
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  bool ready = false;
  ProbeHandle h =
      rec.probe("x", {}, [&](TimePoint) -> std::optional<double> {
        if (!ready) return std::nullopt;
        return 5.0;
      });
  rec.sample(at_s(1));
  ready = true;
  rec.sample(at_s(2));
  const TimeSeries& s = *rec.series()[0];
  ASSERT_EQ(s.points().size(), 1u);  // the nullopt tick left no point
  EXPECT_EQ(s.points()[0].t_ns, at_s(2).ns());
}

TEST(TimeSeriesRecorder, CounterProbeRecordsDeltas) {
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("n");
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  ProbeHandle h = rec.counter_probe("n", {}, [c] { return c->value(); });
  rec.sample(at_s(1));  // first sample: delta from 0
  c->inc(5);
  rec.sample(at_s(2));
  c->inc(2);
  rec.sample(at_s(3));
  const TimeSeries& s = *rec.series()[0];
  EXPECT_EQ(s.probe_kind(), "counter");
  ASSERT_EQ(s.points().size(), 3u);
  EXPECT_DOUBLE_EQ(s.points()[0].last, 0.0);
  EXPECT_DOUBLE_EQ(s.points()[1].last, 5.0);
  EXPECT_DOUBLE_EQ(s.points()[2].last, 2.0);
}

TEST(TimeSeriesRecorder, CompactionConservesSamplesAndDoublesStride) {
  TimeSeriesRecorder::Options opt;
  opt.series_capacity = 8;
  TimeSeriesRecorder rec(opt);
  rec.set_enabled(true);
  int i = 0;
  ProbeHandle h =
      rec.probe("x", {}, [&](TimePoint) { return static_cast<double>(i); });
  for (i = 0; i < 100; ++i) rec.sample(at_s(i + 1));
  const TimeSeries& s = *rec.series()[0];
  EXPECT_EQ(s.samples(), 100u);
  EXPECT_LE(s.points().size(), 8u);
  EXPECT_GE(s.stride(), 2u);
  // Nothing dropped: per-point counts sum to the raw sample count, and
  // each point's min/mean/max bracket correctly.
  std::uint64_t total = 0;
  std::int64_t last_t = -1;
  for (const TimeSeriesPoint& p : s.points()) {
    total += p.count;
    EXPECT_LE(p.min, p.mean());
    EXPECT_LE(p.mean(), p.max);
    EXPECT_LE(p.min, p.last);
    EXPECT_LE(p.last, p.max);
    EXPECT_GT(p.t_ns, last_t);
    last_t = p.t_ns;
  }
  EXPECT_EQ(total, 100u);
  // The overall extrema survive downsampling.
  EXPECT_DOUBLE_EQ(s.points().front().min, 0.0);
  EXPECT_DOUBLE_EQ(s.points().back().max, 99.0);
  EXPECT_DOUBLE_EQ(s.points().back().last, 99.0);
}

TEST(TimeSeriesRecorder, NameCollisionCreatesFreshSeries) {
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  ProbeHandle a = rec.probe("x", {}, [](TimePoint) { return 1.0; });
  ProbeHandle b = rec.probe("x", {}, [](TimePoint) { return 2.0; });
  rec.sample(at_s(1));
  ASSERT_EQ(rec.series_count(), 2u);
  EXPECT_EQ(rec.series()[0]->name(), "x");
  EXPECT_EQ(rec.series()[1]->name(), "x#2");
}

TEST(TimeSeriesRecorder, HandleDestructionStopsSamplingButKeepsData) {
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  {
    ProbeHandle h = rec.probe("x", {}, [](TimePoint) { return 1.0; });
    rec.sample(at_s(1));
  }
  rec.sample(at_s(2));  // probe gone: no new point, no dangling callback
  ASSERT_EQ(rec.series_count(), 1u);
  EXPECT_EQ(rec.series()[0]->points().size(), 1u);
}

TEST(TimeSeriesRecorder, SuppressScopeMakesRegistrationInert) {
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  EXPECT_TRUE(rec.capturing());
  {
    TimeSeriesRecorder::SuppressScope suppress;
    EXPECT_FALSE(rec.capturing());
    ProbeHandle h = rec.probe("x", {}, [](TimePoint) { return 1.0; });
    EXPECT_FALSE(h.active());
  }
  EXPECT_TRUE(rec.capturing());
  // A disengaged scope (replicate 0's path) changes nothing.
  TimeSeriesRecorder::SuppressScope noop(false);
  EXPECT_TRUE(rec.capturing());
}

TEST(TimeSeriesRecorder, WriteTimelineRoundTrips) {
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  rec.set_cadence(Duration::milliseconds(500));
  ProbeHandle h = rec.probe("a.b", {{"dir", "up"}},
                            [](TimePoint t) { return t.to_seconds(); });
  ProbeHandle empty =
      rec.probe("never", {}, [](TimePoint) -> std::optional<double> {
        return std::nullopt;
      });
  rec.sample(at_s(1));
  rec.sample(at_s(2));

  std::ostringstream out;
  write_timeline(out, rec, "unit_test", at_s(3));
  std::istringstream in(out.str());
  std::string line;

  ASSERT_TRUE(std::getline(in, line));
  auto meta = core::Json::parse(line);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value()["type"].as_string(), "meta");
  EXPECT_EQ(meta.value()["kind"].as_string(), "mntp_timeline");
  EXPECT_EQ(meta.value()["schema_version"].as_int(), 1);
  EXPECT_EQ(meta.value()["run"].as_string(), "unit_test");
  EXPECT_EQ(meta.value()["cadence_ns"].as_int(),
            Duration::milliseconds(500).ns());
  EXPECT_EQ(meta.value()["series_count"].as_int(), 1);  // empty one skipped

  ASSERT_TRUE(std::getline(in, line));
  auto series = core::Json::parse(line);
  ASSERT_TRUE(series.ok());
  const core::Json& s = series.value();
  EXPECT_EQ(s["type"].as_string(), "series");
  EXPECT_EQ(s["name"].as_string(), "a.b");
  EXPECT_EQ(s["labels"]["dir"].as_string(), "up");
  EXPECT_EQ(s["probe"].as_string(), "callback");
  EXPECT_EQ(s["samples"].as_int(), 2);
  const auto& points = s["points"].as_array();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].as_array()[0].as_int(), at_s(1).ns());
  EXPECT_DOUBLE_EQ(points[1].as_array()[4].as_double(), 2.0);

  EXPECT_FALSE(std::getline(in, line));  // nothing after the last series

  const ArtifactFile file = test::read_back("timeline.jsonl", out.str());
  EXPECT_EQ(file.kind, ArtifactKind::kTimeline);
  EXPECT_EQ(file.run, "unit_test");
  EXPECT_EQ(file.sim_end_ns, at_s(3).ns());
  EXPECT_EQ(file.timeline.cadence_ns, Duration::milliseconds(500).ns());
  EXPECT_EQ(file.timeline.series_count, 1);
  ASSERT_EQ(file.timeline.series.size(), 1u);
  const TimelineSeries& decoded = file.timeline.series[0];
  EXPECT_EQ(decoded.name, "a.b");
  EXPECT_EQ(decoded.labels, (ArtifactLabels{{"dir", "up"}}));
  EXPECT_EQ(decoded.probe, "callback");
  EXPECT_EQ(decoded.samples, 2);
  EXPECT_EQ(decoded.stride, s["stride"].as_int());
  ASSERT_EQ(decoded.t_ns.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(decoded.t_ns[i], points[i].at(0).as_int());
    EXPECT_EQ(decoded.min[i], points[i].at(1).as_double());
    EXPECT_EQ(decoded.mean[i], points[i].at(2).as_double());
    EXPECT_EQ(decoded.max[i], points[i].at(3).as_double());
  }
  EXPECT_EQ(decoded.last, 2.0);
}

TEST(SimulationSampler, RunUntilSamplesOnCadence) {
  Telemetry telemetry;
  telemetry.timeseries().set_enabled(true);
  telemetry.timeseries().set_cadence(Duration::seconds(1));
  ScopedTelemetry scope(telemetry);
  sim::Simulation sim;
  // The queue-depth probe is registered by the simulation itself; park a
  // few events so the depth is nonzero.
  sim.after(Duration::seconds(10), [] {});
  sim.run_until(TimePoint::epoch() + Duration::seconds(5));
  const auto series = telemetry.timeseries().series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0]->name(), "sim.queue_depth");
  // Cadence 1 s over [0, 5] with the sampler armed at t=0: 6 ticks.
  EXPECT_EQ(series[0]->samples(), 6u);
  // A second run_until keeps sampling where it left off.
  sim.run_until(TimePoint::epoch() + Duration::seconds(8));
  EXPECT_EQ(series[0]->samples(), 9u);
}

TEST(SimulationSampler, DisabledRecorderSchedulesNothing) {
  Telemetry telemetry;  // timeseries disabled
  ScopedTelemetry scope(telemetry);
  sim::Simulation sim;
  sim.after(Duration::seconds(1), [] {});
  sim.run_until(TimePoint::epoch() + Duration::seconds(5));
  // Only the user event ran: the sampler added zero events, so runs
  // without --timeline-out are bit-identical to pre-recorder builds.
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(telemetry.timeseries().series_count(), 0u);
}

}  // namespace
}  // namespace mntp::obs
