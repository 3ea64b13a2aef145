#include "obs/trace_event.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/time.h"
#include "obs/report.h"
#include "obs/telemetry.h"

namespace mntp::obs {
namespace {

using core::TimePoint;

TraceEvent make_event(std::int64_t t_ns, std::string name = "ping",
                      std::vector<Field> fields = {}) {
  return TraceEvent{.t = TimePoint::from_ns(t_ns),
                    .category = "test",
                    .name = std::move(name),
                    .fields = std::move(fields)};
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonlLine, ExactShapeAndFieldTypes) {
  const TraceEvent e = make_event(
      1500000000, "round",
      {{"outcome", std::string("accepted")},
       {"n", std::int64_t{3}},
       {"offset_ms", 1.5},
       {"forced", false}});
  EXPECT_EQ(to_jsonl_line(e),
            "{\"type\":\"event\",\"t_ns\":1500000000,\"category\":\"test\","
            "\"name\":\"round\",\"fields\":{\"outcome\":\"accepted\","
            "\"n\":3,\"offset_ms\":1.5,\"forced\":false}}");
}

TEST(JsonlLine, EmptyFieldsAndNonFiniteNumbers) {
  EXPECT_EQ(to_jsonl_line(make_event(0)),
            "{\"type\":\"event\",\"t_ns\":0,\"category\":\"test\","
            "\"name\":\"ping\",\"fields\":{}}");
  const TraceEvent inf_event =
      make_event(1, "x", {{"v", std::numeric_limits<double>::infinity()}});
  // JSON has no inf; the exporter must not emit an invalid token.
  EXPECT_NE(to_jsonl_line(inf_event).find("\"v\":null"), std::string::npos);
}

TEST(RingBufferSink, EvictsOldestKeepsTotals) {
  RingBufferSink sink(3);
  for (std::int64_t i = 0; i < 5; ++i) sink.on_event(make_event(i));
  EXPECT_EQ(sink.total_events(), 5u);
  EXPECT_EQ(sink.evicted(), 2u);
  ASSERT_EQ(sink.events().size(), 3u);
  // Oldest first, events 0 and 1 evicted.
  EXPECT_EQ(sink.events()[0].t.ns(), 2);
  EXPECT_EQ(sink.events()[2].t.ns(), 4);
  sink.clear();
  EXPECT_EQ(sink.total_events(), 0u);
  EXPECT_EQ(sink.events().size(), 0u);
}

TEST(Telemetry, TracingReflectsSinks) {
  Telemetry tel;
  EXPECT_FALSE(tel.tracing());
  RingBufferSink sink;
  tel.add_sink(&sink);
  EXPECT_TRUE(tel.tracing());
  tel.remove_sink(&sink);
  EXPECT_FALSE(tel.tracing());
}

TEST(Telemetry, EventFansOutToEverySink) {
  Telemetry tel;
  RingBufferSink a, b;
  tel.add_sink(&a);
  tel.add_sink(&b);
  tel.event(TimePoint::from_ns(7), "cat", "name", {{"k", std::int64_t{1}}});
  ASSERT_EQ(a.events().size(), 1u);
  ASSERT_EQ(b.events().size(), 1u);
  EXPECT_EQ(a.events()[0].category, "cat");
  EXPECT_EQ(a.events()[0].fields[0].key, "k");
}

TEST(Telemetry, DisabledDropsEvents) {
  Telemetry tel;
  RingBufferSink sink;
  tel.add_sink(&sink);
  tel.set_enabled(false);
  tel.event(TimePoint::from_ns(1), "cat", "dropped");
  EXPECT_EQ(sink.events().size(), 0u);
  // Metric records are disabled by the same switch.
  ShardedCounter* c = tel.metrics().counter("c");
  c->inc();
  EXPECT_EQ(c->value(), 0u);
  tel.set_enabled(true);
  tel.event(TimePoint::from_ns(2), "cat", "kept");
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(ScopedTelemetry, SwapsAndRestoresGlobal) {
  Telemetry& before = Telemetry::global();
  {
    Telemetry scoped;
    ScopedTelemetry scope(scoped);
    EXPECT_EQ(&Telemetry::global(), &scoped);
    {
      Telemetry nested;
      ScopedTelemetry inner(nested);
      EXPECT_EQ(&Telemetry::global(), &nested);
    }
    EXPECT_EQ(&Telemetry::global(), &scoped);
  }
  EXPECT_EQ(&Telemetry::global(), &before);
}

TEST(RunReport, MetaCountsMatchBody) {
  Telemetry tel;
  RingBufferSink trace;
  tel.add_sink(&trace);
  tel.metrics().counter("a")->inc(5);
  tel.metrics().gauge("b")->set(1.0);
  tel.metrics().histogram("c")->record(3.0);
  tel.event(TimePoint::from_ns(10), "test", "first");
  tel.event(TimePoint::from_ns(20), "test", "second");

  std::ostringstream out;
  write_run_report(out, tel, &trace,
                   ReportOptions{.run_name = "unit",
                                 .sim_end = TimePoint::from_ns(99)});
  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);

  ASSERT_EQ(lines.size(), 6u);  // meta + 3 metrics + 2 events
  EXPECT_EQ(lines[0],
            "{\"type\":\"meta\",\"schema_version\":1,\"run\":\"unit\","
            "\"sim_end_ns\":99,\"metric_count\":3,\"event_count\":2}");
  // Metrics first (name-sorted), then events in sim-time order.
  EXPECT_NE(lines[1].find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"t_ns\":10"), std::string::npos);
  EXPECT_NE(lines[5].find("\"t_ns\":20"), std::string::npos);
}

TEST(RunReport, HistogramLineHasBucketsWithInfTail) {
  Telemetry tel;
  ShardedHdrHistogram* h = tel.metrics().histogram(
      "lat", HdrHistogramOptions{.min_magnitude = 1.0, .max_magnitude = 64.0});
  h->record(0.5);  // zero bucket, bound = min_magnitude
  h->record(32.0);
  std::ostringstream out;
  write_run_report(out, tel, nullptr, ReportOptions{});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"buckets\":[{\"le\":1,\"count\":1},"
                      "{\"le\":33,\"count\":1},{\"le\":\"inf\",\"count\":0}]"),
            std::string::npos);
}

TEST(RunReport, EventsKeepSimTimeOrder) {
  Telemetry tel;
  RingBufferSink trace(4);
  tel.add_sink(&trace);
  // Monotone emission (the simulation dispatches in timestamp order);
  // overflow evicts from the front, preserving order.
  for (std::int64_t t = 0; t < 10; ++t) {
    tel.event(TimePoint::from_ns(t), "test", "tick");
  }
  std::ostringstream out;
  write_run_report(out, tel, &trace, ReportOptions{});
  std::istringstream in(out.str());
  std::string line;
  std::int64_t last = -1;
  std::size_t events = 0;
  while (std::getline(in, line)) {
    const auto pos = line.find("\"t_ns\":");
    if (pos == std::string::npos || line.find("\"type\":\"event\"") == std::string::npos) {
      continue;
    }
    const std::int64_t t = std::stoll(line.substr(pos + 7));
    EXPECT_GT(t, last);
    last = t;
    ++events;
  }
  EXPECT_EQ(events, 4u);
  EXPECT_EQ(last, 9);
}

}  // namespace
}  // namespace mntp::obs
