#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/time.h"
#include "obs/report.h"

namespace mntp::obs {
namespace {

using core::TimePoint;

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
  tel.metrics().counter("a")->inc(5);
  tel.metrics().gauge("b")->set(1.0);
  tel.metrics().histogram("c")->record(3.0);

  std::ostringstream out;
  write_run_report(out, tel,
                   ReportOptions{.run_name = "unit",
                                 .sim_end = TimePoint::from_ns(99)});
  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);

  ASSERT_EQ(lines.size(), 4u);  // meta + 3 metrics
  EXPECT_EQ(lines[0],
            "{\"type\":\"meta\",\"schema_version\":1,\"run\":\"unit\","
            "\"sim_end_ns\":99,\"metric_count\":3,\"event_count\":0}");
  // Metrics name-sorted.
  EXPECT_NE(lines[1].find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"kind\":\"histogram\""), std::string::npos);
}

TEST(RunReport, HistogramLineHasBucketsWithInfTail) {
  Telemetry tel;
  ShardedHdrHistogram* h = tel.metrics().histogram(
      "lat", HdrHistogramOptions{.min_magnitude = 1.0, .max_magnitude = 64.0});
  h->record(0.5);  // zero bucket, bound = min_magnitude
  h->record(32.0);
  std::ostringstream out;
  write_run_report(out, tel, ReportOptions{});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"buckets\":[{\"le\":1,\"count\":1},"
                      "{\"le\":33,\"count\":1},{\"le\":\"inf\",\"count\":0}]"),
            std::string::npos);
}

}  // namespace
}  // namespace mntp::obs
