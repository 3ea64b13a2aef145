// Reason-code taxonomy tests plus golden decision-stage emission: the
// exact stage name, reason, and payload each decision point publishes is
// a contract consumed by `mntp-inspect validate` and
// `mntp-inspect explain` — drift must fail here, not in a dashboard.
#include "obs/reason_codes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/time.h"
#include "mntp/drift_filter.h"
#include "mntp/engine.h"
#include "mntp/false_ticker.h"
#include "ntp/clock_filter.h"
#include "obs/query_trace.h"

namespace mntp::obs {
namespace {

using core::Duration;
using core::TimePoint;

TimePoint at(std::int64_t ns) { return TimePoint::from_ns(ns); }

TEST(ReasonCodes, ToStringIsClosedAndUnique) {
  std::set<std::string> seen;
  for (const Reason r : kAllReasons) {
    const std::string name(to_string(r));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate reason " << name;
  }
  EXPECT_EQ(seen.size(), std::size(kAllReasons));
  EXPECT_EQ(to_string(Reason::kChannelDefer), "channel_defer");
  EXPECT_EQ(to_string(Reason::kTrendOutlier), "trend_outlier");
  EXPECT_EQ(to_string(Reason::kFalseTicker), "false_ticker");
}

TEST(ReasonCodes, OutcomeMappingIsOneToOne) {
  using protocol::SampleOutcome;
  // 1:1 so the explain causation table reconciles exactly against the
  // mntp.sample outcome counters.
  EXPECT_EQ(protocol::to_reason(SampleOutcome::kAcceptedWarmup),
            Reason::kAcceptedWarmup);
  EXPECT_EQ(protocol::to_reason(SampleOutcome::kAcceptedRegular),
            Reason::kAcceptedRegular);
  EXPECT_EQ(protocol::to_reason(SampleOutcome::kRejectedFalseTicker),
            Reason::kFalseTicker);
  EXPECT_EQ(protocol::to_reason(SampleOutcome::kRejectedFilter),
            Reason::kTrendOutlier);
}

// ------------------------------------------------- golden stage payloads

/// Tracer with one traced query installed as the thread's ambient.
struct TracedFixture {
  QueryTracer tracer;
  QueryId id = 0;
  std::optional<ActiveQueryScope> scope;

  TracedFixture() {
    tracer.set_enabled(true);
    id = tracer.begin(at(0), "round");
    scope.emplace(tracer, id);
  }
  [[nodiscard]] std::vector<QueryStage> stages() const {
    const auto traces = tracer.snapshot();
    return traces.empty() ? std::vector<QueryStage>{} : traces[0].stages;
  }
};

double field_double(const QueryStage& s, const char* key) {
  for (const Field& f : s.fields) {
    if (f.key == key) return std::get<double>(f.value);
  }
  ADD_FAILURE() << "missing double field " << key;
  return 0.0;
}

std::int64_t field_int(const QueryStage& s, const char* key) {
  for (const Field& f : s.fields) {
    if (f.key == key) return std::get<std::int64_t>(f.value);
  }
  ADD_FAILURE() << "missing int field " << key;
  return 0;
}

std::string field_string(const QueryStage& s, const char* key) {
  for (const Field& f : s.fields) {
    if (f.key == key) return std::get<std::string>(f.value);
  }
  ADD_FAILURE() << "missing string field " << key;
  return {};
}

bool field_bool(const QueryStage& s, const char* key) {
  for (const Field& f : s.fields) {
    if (f.key == key) return std::get<bool>(f.value);
  }
  ADD_FAILURE() << "missing bool field " << key;
  return false;
}

TEST(GoldenStages, DriftFilterEmitsVerdictPerOffer) {
  TracedFixture fix;
  protocol::DriftFilter filter(
      protocol::DriftFilterConfig{.bootstrap_samples = 2});
  // Two bootstrap accepts, one on-trend accept, one far outlier.
  (void)filter.offer(at(0), 0.000);
  (void)filter.offer(at(10'000'000'000), 0.001);
  (void)filter.offer(at(20'000'000'000), 0.002);
  (void)filter.offer(at(30'000'000'000), 0.500);

  const auto stages = fix.stages();
  ASSERT_EQ(stages.size(), 4u);
  for (const QueryStage& s : stages) EXPECT_EQ(s.stage, "drift_filter");
  EXPECT_EQ(stages[0].reason, Reason::kOk);
  EXPECT_TRUE(field_bool(stages[0], "bootstrap"));
  EXPECT_EQ(stages[1].reason, Reason::kOk);
  EXPECT_TRUE(field_bool(stages[1], "bootstrap"));
  EXPECT_EQ(stages[2].reason, Reason::kOk);
  EXPECT_FALSE(field_bool(stages[2], "bootstrap"));
  // The regular-phase gate reports its threshold in the offset domain.
  EXPECT_GT(field_double(stages[2], "threshold_ms"), 0.0);
  EXPECT_EQ(stages[3].reason, Reason::kTrendOutlier);
  EXPECT_FALSE(field_bool(stages[3], "bootstrap"));
  // The rejected sample sits ~497 ms off a 0.1 ms/s trend.
  EXPECT_GT(field_double(stages[3], "residual_ms"), 400.0);
  EXPECT_GT(field_double(stages[3], "residual_ms"),
            field_double(stages[3], "threshold_ms"));
}

TEST(GoldenStages, FalseTickerEmitsVoteWithVotedOutIndices) {
  TracedFixture fix;
  const std::vector<double> offsets = {0.001, 0.002, 0.500};
  const auto survivors =
      protocol::reject_false_tickers(offsets, at(7'000'000'000));
  ASSERT_EQ(survivors, (std::vector<std::size_t>{0, 1}));

  const auto stages = fix.stages();
  ASSERT_EQ(stages.size(), 1u);
  const QueryStage& vote = stages[0];
  EXPECT_EQ(vote.stage, "false_ticker");
  EXPECT_EQ(vote.reason, Reason::kFalseTicker);
  EXPECT_EQ(vote.t, at(7'000'000'000));
  EXPECT_EQ(field_int(vote, "sources"), 3);
  EXPECT_EQ(field_int(vote, "rejected"), 1);
  EXPECT_EQ(field_string(vote, "voted_out"), "2");
  EXPECT_FALSE(field_bool(vote, "degenerate"));
  EXPECT_NEAR(field_double(vote, "mean_ms"), 167.667, 0.01);
  EXPECT_GT(field_double(vote, "sd_ms"), 0.0);
}

TEST(GoldenStages, FalseTickerUnanimousVoteReportsOk) {
  TracedFixture fix;
  // Agreeing sources: zero spread keeps every deviation inside one sd.
  const std::vector<double> offsets = {0.001, 0.001, 0.001};
  (void)protocol::reject_false_tickers(offsets, at(1));
  const auto stages = fix.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].reason, Reason::kOk);
  EXPECT_EQ(field_int(stages[0], "rejected"), 0);
  EXPECT_EQ(field_string(stages[0], "voted_out"), "");
}

TEST(GoldenStages, ClockFilterEmitsPopcornSuppression) {
  TracedFixture fix;
  ntp::ClockFilterParams params;
  params.popcorn_gate = 2.0;  // gate = 2 x max(jitter, 5 ms floor) = 10 ms
  ntp::ClockFilter filter(params);
  ASSERT_TRUE(filter
                  .update(Duration::from_millis(1), Duration::from_millis(20),
                          at(1'000'000'000))
                  .has_value());
  // 50 ms jump against a 10 ms gate: swallowed by the suppressor.
  EXPECT_FALSE(filter
                   .update(Duration::from_millis(51),
                           Duration::from_millis(20), at(2'000'000'000))
                   .has_value());

  const auto stages = fix.stages();
  ASSERT_EQ(stages.size(), 1u);
  const QueryStage& s = stages[0];
  EXPECT_EQ(s.stage, "clock_filter");
  EXPECT_EQ(s.reason, Reason::kPopcornSuppressed);
  EXPECT_EQ(s.t, at(2'000'000'000));
  EXPECT_NEAR(field_double(s, "deviation_ms"), 50.0, 1e-9);
  EXPECT_NEAR(field_double(s, "gate_ms"), 10.0, 1e-9);
}

TEST(GoldenStages, NoAmbientQueryMeansNoStages) {
  // Decision points fire only on behalf of a traced query: with no
  // ambient installed they must leave the store untouched even when a
  // tracer exists and is enabled elsewhere on the thread.
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(0), "round");
  protocol::DriftFilter filter(
      protocol::DriftFilterConfig{.bootstrap_samples = 2});
  (void)filter.offer(at(1), 0.001);
  (void)protocol::reject_false_tickers(std::vector<double>{0.1, 0.2, 0.9},
                                       at(2));
  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].stages.empty());
  (void)id;
}

}  // namespace
}  // namespace mntp::obs
