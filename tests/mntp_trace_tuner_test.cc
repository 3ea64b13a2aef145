// Trace round-trip and tuner (logger/emulator/searcher) tests.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/rng.h"
#include "mntp/trace.h"
#include "mntp/tuner.h"
#include "ntp/testbed.h"
#include "obs/telemetry.h"

namespace mntp::protocol {
namespace {

using core::Duration;
using core::TimePoint;

Trace make_trace(std::size_t n, double interval_s = 5.0) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.t_s = static_cast<double>(i) * interval_s;
    r.rssi_dbm = -60.0;
    r.noise_dbm = -92.0;
    r.offsets_s = {0.001, 0.002, 0.0005};
    t.records.push_back(std::move(r));
  }
  return t;
}

TEST(Trace, CsvRoundTrip) {
  const Trace t = make_trace(5);
  const std::string csv = t.to_csv();
  const auto parsed = Trace::from_csv(csv);
  ASSERT_TRUE(parsed.ok());
  const Trace& u = parsed.value();
  ASSERT_EQ(u.size(), 5u);
  EXPECT_DOUBLE_EQ(u.records[3].t_s, 15.0);
  EXPECT_DOUBLE_EQ(u.records[3].rssi_dbm, -60.0);
  ASSERT_EQ(u.records[3].offsets_s.size(), 3u);
  EXPECT_NEAR(u.records[3].offsets_s[1], 0.002, 1e-9);
}

TEST(Trace, RaggedOffsetsSupported) {
  Trace t;
  t.records.push_back({.t_s = 0.0, .rssi_dbm = -60, .noise_dbm = -90,
                       .offsets_s = {}});
  t.records.push_back({.t_s = 5.0, .rssi_dbm = -61, .noise_dbm = -91,
                       .offsets_s = {0.1}});
  const auto parsed = Trace::from_csv(t.to_csv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().records[0].offsets_s.empty());
  EXPECT_EQ(parsed.value().records[1].offsets_s.size(), 1u);
}

TEST(Trace, RejectsMalformedRows) {
  EXPECT_FALSE(Trace::from_csv("header\n1.0,abc,-90\n").ok());
  EXPECT_FALSE(Trace::from_csv("header\n1.0,-60\n").ok());  // too few fields
}

TEST(Trace, RejectsNonMonotonicTimestamps) {
  const std::string csv = "h\n1.0,-60,-90\n0.5,-60,-90\n";
  const auto parsed = Trace::from_csv(csv);
  ASSERT_FALSE(parsed.ok());
}

TEST(Trace, SpanAndEmpty) {
  EXPECT_TRUE(Trace{}.empty());
  EXPECT_DOUBLE_EQ(Trace{}.span_s(), 0.0);
  EXPECT_DOUBLE_EQ(make_trace(10).span_s(), 45.0);
}

TEST(Emulator, EmptyTraceEmptyResult) {
  const auto r = tuner::emulate(Trace{}, MntpParams{});
  EXPECT_EQ(r.requests, 0u);
  EXPECT_TRUE(r.reported_offsets_ms.empty());
}

TEST(Emulator, PacingControlsRequestCount) {
  const Trace t = make_trace(200);  // 1000 s at 5 s cadence
  MntpParams fast = head_to_head_params();  // acts every 5 s
  MntpParams slow = head_to_head_params();
  slow.regular_wait_time = Duration::seconds(60);
  slow.warmup_wait_time = Duration::seconds(60);
  const auto rf = tuner::emulate(t, fast);
  const auto rs = tuner::emulate(t, slow);
  EXPECT_GT(rf.requests, rs.requests * 5);
}

TEST(Emulator, UnfavorableHintsDeferEverything) {
  Trace t = make_trace(50);
  for (auto& r : t.records) {
    r.rssi_dbm = -85.0;  // below threshold
  }
  const auto r = tuner::emulate(t, head_to_head_params());
  EXPECT_EQ(r.requests, 0u);
  EXPECT_GT(r.deferrals, 40u);
}

TEST(Emulator, Deterministic) {
  const Trace t = make_trace(100);
  const auto a = tuner::emulate(t, MntpParams{});
  const auto b = tuner::emulate(t, MntpParams{});
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reported_offsets_ms, b.reported_offsets_ms);
  EXPECT_DOUBLE_EQ(a.rmse_ms, b.rmse_ms);
}

TEST(Emulator, RmseReflectsOffsets) {
  Trace t = make_trace(100);
  for (auto& r : t.records) r.offsets_s = {0.010};  // constant 10 ms
  const auto res = tuner::emulate(t, head_to_head_params());
  ASSERT_FALSE(res.reported_offsets_ms.empty());
  EXPECT_NEAR(res.rmse_ms, 10.0, 0.5);
}

TEST(Emulator, WarmupConsumesThreeOffsetsRegularOne) {
  const Trace t = make_trace(200);
  MntpParams p;
  p.warmup_period = Duration::minutes(2);
  p.warmup_wait_time = Duration::seconds(5);
  p.regular_wait_time = Duration::seconds(5);
  p.min_warmup_samples = 5;
  p.reset_period = Duration::hours(2);
  const auto r = tuner::emulate(t, p);
  // Warm-up rounds bill 3 requests each; regular rounds 1. Total must
  // exceed the pure-regular count for the same opportunities.
  const auto pure_regular = tuner::emulate(t, head_to_head_params());
  EXPECT_GT(r.requests, pure_regular.requests);
}

// A "recorded" trace with realistic variation: hints wander (so some
// configs gate differently) and offsets are noisy, all deterministic.
Trace make_noisy_trace(std::size_t n) {
  Trace t;
  core::Rng rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.t_s = static_cast<double>(i) * 5.0;
    r.rssi_dbm = rng.uniform(-85.0, -55.0);
    r.noise_dbm = rng.uniform(-95.0, -70.0);
    const std::size_t k = rng.index(4);  // 0..3 offsets; 0 = failed round
    for (std::size_t j = 0; j < k; ++j) {
      r.offsets_s.push_back(rng.normal(0.0, 0.01));
    }
    t.records.push_back(std::move(r));
  }
  return t;
}

tuner::SearchSpace golden_space() {
  tuner::SearchSpace space;
  space.warmup_periods = {Duration::minutes(30), Duration::minutes(60),
                          Duration::minutes(120)};
  space.warmup_wait_times = {Duration::seconds(15), Duration::seconds(60)};
  space.regular_wait_times = {Duration::minutes(5), Duration::minutes(15),
                              Duration::minutes(30)};
  space.reset_periods = {Duration::hours(4)};
  return space;
}

TEST(Searcher, ParallelOutputBitIdenticalToSerial) {
  const Trace t = make_noisy_trace(2880);  // 4 h at 5 s
  const auto space = golden_space();
  const auto serial = tuner::search(t, space, {.threads = 1});
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto parallel = tuner::search(t, space, {.threads = threads});
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical: same enumeration order, same doubles, not "close".
      EXPECT_EQ(serial[i].rmse_ms, parallel[i].rmse_ms)
          << "entry " << i << ", " << threads << " threads";
      EXPECT_EQ(serial[i].requests, parallel[i].requests)
          << "entry " << i << ", " << threads << " threads";
      EXPECT_EQ(serial[i].to_string(), parallel[i].to_string())
          << "entry " << i << ", " << threads << " threads";
    }
  }
}

TEST(Searcher, CountsEveryConfigOnceUnderParallelScoring) {
  const Trace t = make_noisy_trace(360);
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  (void)tuner::search(t, golden_space(), {.threads = 4});
  EXPECT_EQ(tel.metrics().counter("tuner.configs_scored")->value(), 18u);
}

TEST(Searcher, EngineCountersEqualReplayTalliesAtAnyThreadCount) {
  // The engine only tallies; emulate() adds each replay's totals to the
  // registry once. Whatever the thread count, the counters must equal
  // the sums of the per-replay tallies.
  const Trace t = make_noisy_trace(720);
  tuner::SearchSpace space = golden_space();
  space.reset_periods = {Duration::minutes(20), Duration::hours(4)};

  tuner::EmulationResult want;
  {
    obs::Telemetry scratch;  // the reference replays publish here
    obs::ScopedTelemetry scope(scratch);
    for (const Duration wp : space.warmup_periods) {
      for (const Duration wwt : space.warmup_wait_times) {
        for (const Duration rwt : space.regular_wait_times) {
          for (const Duration rp : space.reset_periods) {
            MntpParams p = space.base;
            p.warmup_period = wp;
            p.warmup_wait_time = wwt;
            p.regular_wait_time = rwt;
            p.reset_period = rp;
            const tuner::EmulationResult r = tuner::emulate(t, p);
            want.rounds += r.rounds;
            want.deferrals += r.deferrals;
            want.resets += r.resets;
            for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
              want.outcomes[i] += r.outcomes[i];
            }
          }
        }
      }
    }
  }
  ASSERT_GT(want.rounds, 0u);
  ASSERT_GT(want.deferrals, 0u);
  ASSERT_GT(want.resets, 0u);

  for (const std::size_t threads : {1u, 4u}) {
    obs::Telemetry tel;
    obs::ScopedTelemetry scope(tel);
    (void)tuner::search(t, space, {.threads = threads});
    obs::MetricsRegistry& m = tel.metrics();
    EXPECT_EQ(m.counter("mntp.rounds")->value(), want.rounds) << threads;
    EXPECT_EQ(m.counter("mntp.deferrals")->value(), want.deferrals) << threads;
    EXPECT_EQ(m.counter("mntp.resets")->value(), want.resets) << threads;
    for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
      const auto outcome = static_cast<SampleOutcome>(i);
      EXPECT_EQ(m.counter("mntp.sample", {{"outcome", to_string(outcome)}})
                    ->value(),
                want.outcomes[i])
          << to_string(outcome) << ", " << threads << " threads";
    }
  }
}

TEST(Emulator, FailedRoundBillsRequestsButReportsNoOffset) {
  // Decision pinned here: all-queries-failed records STAY in the trace
  // (hints drive gating/deferral) and replay as a round that costs
  // requests but lands no sample — matching what the live client
  // experiences when its queries time out.
  Trace t;
  for (std::size_t i = 0; i < 3; ++i) {
    TraceRecord r;
    r.t_s = static_cast<double>(i) * 5.0;
    r.rssi_dbm = -60.0;  // gate open
    r.noise_dbm = -92.0;
    // middle record: every query failed
    if (i != 1) r.offsets_s = {0.001};
    t.records.push_back(std::move(r));
  }
  MntpParams p = head_to_head_params();
  const auto with_failed = tuner::emulate(t, p);

  Trace only_good = t;
  only_good.records.erase(only_good.records.begin() + 1);
  const auto without = tuner::emulate(only_good, p);

  // The failed round still billed its requests...
  EXPECT_GT(with_failed.requests, without.requests);
  // ...but contributed no reported offset.
  EXPECT_EQ(with_failed.reported_offsets_ms.size(),
            without.reported_offsets_ms.size());
}

TEST(Searcher, EnumeratesCartesianProduct) {
  const Trace t = make_trace(100);
  tuner::SearchSpace space;
  space.warmup_periods = {Duration::minutes(1), Duration::minutes(2)};
  space.warmup_wait_times = {Duration::seconds(5)};
  space.regular_wait_times = {Duration::seconds(15), Duration::seconds(30),
                              Duration::seconds(60)};
  space.reset_periods = {Duration::hours(4)};
  const auto entries = tuner::search(t, space);
  EXPECT_EQ(entries.size(), 6u);
  for (const auto& e : entries) {
    EXPECT_GE(e.rmse_ms, 0.0);
  }
  EXPECT_FALSE(entries[0].to_string().empty());
}

TEST(Logger, CapturesHintsAndOffsets) {
  ntp::TestbedConfig config;
  config.seed = 200;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  tuner::LoggerParams lp;
  tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                       lp, bed.fork_rng());
  bed.start();
  logger.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(10));
  logger.stop();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(11));

  const Trace& t = logger.trace();
  ASSERT_GT(t.size(), 100u);  // ~120 opportunities
  std::size_t with_offsets = 0;
  for (const auto& r : t.records) {
    EXPECT_GT(r.rssi_dbm, -120.0);
    EXPECT_LT(r.rssi_dbm, 0.0);
    EXPECT_LE(r.offsets_s.size(), lp.sources);
    if (!r.offsets_s.empty()) ++with_offsets;
  }
  EXPECT_GT(with_offsets, t.size() / 2);
}

TEST(Logger, DestroyWithQueriesInFlightIsSafe) {
  // Regression: completion callbacks used to capture `this` unguarded;
  // queries still in flight after destruction wrote into freed memory.
  ntp::TestbedConfig config;
  config.seed = 202;
  config.wireless = true;
  ntp::Testbed bed(config);
  bed.start();
  {
    tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(),
                         bed.channel(), {}, bed.fork_rng());
    logger.start();
    // Long enough for capture_once to fire and launch its queries, short
    // enough that no exchange has completed (RTTs are tens of ms).
    bed.sim().run_until(TimePoint::epoch() + Duration::milliseconds(1));
    EXPECT_TRUE(logger.started());
  }  // destroyed with ~3 SNTP exchanges outstanding
  // Drain: the orphaned completions fire and must be no-ops.
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
}

TEST(Logger, StopDisarmsInFlightQueriesAndResetsStarted) {
  ntp::TestbedConfig config;
  config.seed = 203;
  config.wireless = true;
  ntp::Testbed bed(config);
  tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.channel(), {}, bed.fork_rng());
  bed.start();
  EXPECT_FALSE(logger.started());
  logger.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::milliseconds(1));
  logger.stop();
  EXPECT_FALSE(logger.started());
  const std::size_t at_stop = logger.trace().size();
  // The round that was in flight at stop() completes but is dropped.
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
  EXPECT_EQ(logger.trace().size(), at_stop);

  // A stopped logger restarts cleanly and captures again.
  logger.start();
  EXPECT_TRUE(logger.started());
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(3));
  logger.stop();
  EXPECT_GT(logger.trace().size(), at_stop);
}

TEST(Logger, SmallPoolDrawsDistinctServersWithoutSpin) {
  // sources > pool size used to make the rejection-sampling draw loop
  // degenerate; the partial Fisher–Yates draws min(sources, size)
  // distinct indices in exactly that many RNG draws.
  ntp::TestbedConfig config;
  config.seed = 204;
  config.wireless = true;
  config.ntp_correction = false;  // default peer set needs a larger pool
  config.pool.server_count = 2;   // smaller than the default sources = 3
  ntp::Testbed bed(config);
  tuner::LoggerParams lp;
  lp.sources = 3;
  tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.channel(), lp, bed.fork_rng());
  bed.start();
  logger.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(5));
  logger.stop();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(6));
  ASSERT_GT(logger.trace().size(), 10u);
  for (const auto& r : logger.trace().records) {
    EXPECT_LE(r.offsets_s.size(), 2u);  // at most pool-size distinct sources
  }
}

TEST(LoggerEmulatorEndToEnd, CapturedTraceReplays) {
  ntp::TestbedConfig config;
  config.seed = 201;
  config.wireless = true;
  config.ntp_correction = true;
  ntp::Testbed bed(config);
  tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                       {}, bed.fork_rng());
  bed.start();
  logger.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(30));
  logger.stop();

  const auto result = tuner::emulate(logger.trace(), head_to_head_params());
  EXPECT_GT(result.requests, 0u);
  EXPECT_FALSE(result.reported_offsets_ms.empty());
  // The emulated MNTP on a corrected-clock trace stays within tens of ms.
  EXPECT_LT(result.rmse_ms, 50.0);
}

}  // namespace
}  // namespace mntp::protocol
