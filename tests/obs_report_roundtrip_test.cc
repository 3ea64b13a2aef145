// Round-trip check for the run-report JSONL writer (obs/report.h): build
// a populated Telemetry, serialize with write_run_report, parse
// every line back with core::Json and verify the schema contract the
// Python validator and mntp-inspect both rely on.
#include "obs/report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"

namespace mntp::obs {
namespace {

std::vector<core::Json> parse_lines(const std::string& text) {
  std::vector<core::Json> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = core::Json::parse(line);
    EXPECT_TRUE(parsed.ok()) << "bad JSONL line: " << line;
    if (parsed.ok()) lines.push_back(parsed.value());
  }
  return lines;
}

struct ReportFixture {
  Telemetry telemetry;

  ReportFixture() {
    telemetry.metrics().counter("test.requests")->inc(7);
    telemetry.metrics().gauge("test.depth", {{"queue", "main"}})->set(3.5);
    ShardedHdrHistogram* h = telemetry.metrics().histogram("test.latency_ms");
    for (int i = 1; i <= 100; ++i) h->record(static_cast<double>(i));
  }

  [[nodiscard]] std::vector<core::Json> write() const {
    std::ostringstream out;
    write_run_report(out, telemetry,
                     ReportOptions{.run_name = "roundtrip",
                                   .sim_end = core::TimePoint::from_ns(9'000)});
    return parse_lines(out.str());
  }
};

TEST(ReportRoundtrip, MetaLineLeadsAndCountsMatch) {
  ReportFixture fx;
  const auto lines = fx.write();
  ASSERT_FALSE(lines.empty());
  const core::Json& meta = lines[0];
  EXPECT_EQ(meta["type"].as_string(), "meta");
  EXPECT_EQ(meta["schema_version"].as_int(), 1);
  EXPECT_EQ(meta["run"].as_string(), "roundtrip");
  EXPECT_EQ(meta["sim_end_ns"].as_int(), 9'000);

  std::int64_t metric_lines = 0, event_lines = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& type = lines[i]["type"].as_string();
    if (type == "metric") ++metric_lines;
    if (type == "event") ++event_lines;
  }
  EXPECT_EQ(meta["metric_count"].as_int(), metric_lines);
  EXPECT_EQ(meta["event_count"].as_int(), event_lines);
  EXPECT_EQ(metric_lines, 3);
  EXPECT_EQ(event_lines, 0);
}

TEST(ReportRoundtrip, ScalarMetricValuesSurvive) {
  ReportFixture fx;
  bool saw_counter = false, saw_gauge = false;
  for (const core::Json& line : fx.write()) {
    if (line["type"].as_string() != "metric") continue;
    if (line["name"].as_string() == "test.requests") {
      saw_counter = true;
      EXPECT_EQ(line["kind"].as_string(), "counter");
      EXPECT_EQ(line["value"].as_int(), 7);
    }
    if (line["name"].as_string() == "test.depth") {
      saw_gauge = true;
      EXPECT_EQ(line["kind"].as_string(), "gauge");
      EXPECT_EQ(line["value"].as_double(), 3.5);
      EXPECT_EQ(line["labels"]["queue"].as_string(), "main");
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(ReportRoundtrip, HistogramLineCarriesSummaryAndBuckets) {
  ReportFixture fx;
  bool saw = false;
  for (const core::Json& line : fx.write()) {
    if (line["type"].as_string() != "metric" ||
        line["name"].as_string() != "test.latency_ms") {
      continue;
    }
    saw = true;
    EXPECT_EQ(line["kind"].as_string(), "histogram");
    EXPECT_EQ(line["count"].as_int(), 100);
    // Sum is rebuilt from bucket midpoints: within the 2^-6 HDR bound.
    EXPECT_NEAR(line["sum"].as_double(), 5050.0, 5050.0 / 64.0);
    EXPECT_EQ(line["min"].as_double(), 1.0);
    EXPECT_EQ(line["max"].as_double(), 100.0);
    EXPECT_GT(line["p50"].as_double(), 0.0);
    EXPECT_GE(line["p99"].as_double(), line["p90"].as_double());
    const auto& buckets = line["buckets"].as_array();
    ASSERT_FALSE(buckets.empty());
    EXPECT_EQ(buckets.back()["le"].as_string(), "inf");
    std::int64_t in_buckets = 0;
    for (const core::Json& b : buckets) {
      EXPECT_GE(b["count"].as_int(), 0);
      in_buckets += b["count"].as_int();
    }
    EXPECT_EQ(in_buckets, 100);  // per-bucket counts partition the samples
  }
  EXPECT_TRUE(saw);
}

TEST(ReportRoundtrip, MetricLinesAreNameSorted) {
  ReportFixture fx;
  std::vector<std::string> names;
  for (const core::Json& line : fx.write()) {
    if (line["type"].as_string() == "metric") {
      names.push_back(line["name"].as_string());
    }
  }
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ReportRoundtrip, ProfilerExportAppearsAsSpanGauges) {
  ReportFixture fx;
  fx.telemetry.profiler().set_enabled(true);
  {
    ScopedTelemetry scope(fx.telemetry);
    ProfileScope span("test.report_span");
  }
  fx.telemetry.profiler().export_to_metrics(fx.telemetry.metrics());
  bool saw_count = false;
  for (const core::Json& line : fx.write()) {
    if (line["type"].as_string() != "metric") continue;
    if (line["name"].as_string() == "profile.span.count" &&
        line["labels"]["span"].as_string() == "test.report_span") {
      saw_count = true;
      EXPECT_EQ(line["kind"].as_string(), "gauge");
      EXPECT_EQ(line["value"].as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_count);
}

TEST(ReportRoundtrip, WithoutTraceSinkReportHasNoEventLines) {
  Telemetry telemetry;
  telemetry.metrics().counter("test.only")->inc();
  std::ostringstream out;
  write_run_report(out, telemetry, ReportOptions{});
  const auto lines = parse_lines(out.str());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0]["event_count"].as_int(), 0);
  for (const core::Json& line : lines) {
    EXPECT_NE(line["type"].as_string(), "event");
  }
}

}  // namespace
}  // namespace mntp::obs
