// Live MNTP client integration tests against the full testbed.
#include <gtest/gtest.h>

#include <cmath>

#include "core/stats.h"
#include "mntp/mntp_client.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"
#include "obs/telemetry.h"

namespace mntp::protocol {
namespace {

using core::Duration;
using core::TimePoint;

TEST(MntpClient, HeadToHeadBeatsSntpOnWireless) {
  ntp::TestbedConfig config;
  config.seed = 300;
  config.wireless = true;
  config.ntp_correction = true;
  ntp::Testbed bed(config);

  ntp::SntpClientPolicy sntp_policy;
  sntp_policy.poll_interval = Duration::seconds(5);
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(), sntp_policy);
  MntpClient mntp_client(bed.sim(), bed.target_clock(), bed.pool(),
                         bed.channel(), head_to_head_params(), bed.fork_rng());

  bed.start();
  sntp.start();
  mntp_client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::hours(1));

  const auto sntp_offsets = sntp.offsets_ms();
  const auto mntp_offsets = mntp_client.engine().accepted_offsets_ms();
  ASSERT_GT(sntp_offsets.size(), 300u);
  ASSERT_GT(mntp_offsets.size(), 100u);
  // The headline claim: MNTP's reported offsets are far tighter.
  EXPECT_LT(core::max_abs(mntp_offsets), 40.0);
  EXPECT_GT(core::max_abs(sntp_offsets), 100.0);
  EXPECT_LT(core::rmse(mntp_offsets), core::rmse(sntp_offsets) / 3.0);
}

TEST(MntpClient, DefersUnderBadChannel) {
  ntp::TestbedConfig config;
  config.seed = 301;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                    head_to_head_params(), bed.fork_rng());
  bed.start();
  client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(30));
  EXPECT_GT(client.engine().deferrals(), 20u);
  // Hint log records both favorable and unfavorable observations.
  std::size_t favorable = 0, unfavorable = 0;
  for (const auto& h : client.hint_log()) {
    (h.favorable ? favorable : unfavorable) += 1;
  }
  EXPECT_GT(favorable, 0u);
  EXPECT_GT(unfavorable, 0u);
}

TEST(MntpClient, FullAlgorithmTransitionsPhases) {
  ntp::TestbedConfig config;
  config.seed = 302;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  MntpParams params;
  params.warmup_period = Duration::minutes(5);
  params.warmup_wait_time = Duration::seconds(15);
  params.regular_wait_time = Duration::seconds(60);
  params.reset_period = Duration::hours(12);
  params.min_warmup_samples = 10;
  MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                    params, bed.fork_rng());
  bed.start();
  client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(4));
  EXPECT_EQ(client.engine().phase(), Phase::kWarmup);
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(30));
  EXPECT_EQ(client.engine().phase(), Phase::kRegular);
  // Warm-up produced records from multiple sources, regular from one.
  bool saw_warmup = false, saw_regular = false;
  for (const auto& r : client.engine().records()) {
    saw_warmup |= r.phase == Phase::kWarmup;
    saw_regular |= r.phase == Phase::kRegular;
  }
  EXPECT_TRUE(saw_warmup);
  EXPECT_TRUE(saw_regular);
}

TEST(MntpClient, ResetPeriodRestartsWarmup) {
  ntp::TestbedConfig config;
  config.seed = 303;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  MntpParams params;
  params.warmup_period = Duration::minutes(2);
  params.warmup_wait_time = Duration::seconds(10);
  params.regular_wait_time = Duration::seconds(30);
  params.reset_period = Duration::minutes(20);
  params.min_warmup_samples = 5;
  MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                    params, bed.fork_rng());
  bed.start();
  client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::hours(1));
  EXPECT_GE(client.engine().resets(), 2u);
}

TEST(MntpClient, PublishesCountersEqualToEngineTallies) {
  // The engine only tallies; the client publishes each event to the
  // registry as it happens. A run with deferrals, resets and both
  // phases must leave the counters equal to the engine's tallies.
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  ntp::TestbedConfig config;
  config.seed = 303;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  MntpParams params;
  params.warmup_period = Duration::minutes(2);
  params.warmup_wait_time = Duration::seconds(10);
  params.regular_wait_time = Duration::seconds(30);
  params.reset_period = Duration::minutes(20);
  params.min_warmup_samples = 5;
  MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                    params, bed.fork_rng());
  bed.start();
  client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::hours(1));

  const MntpEngine& engine = client.engine();
  ASSERT_GT(engine.deferrals(), 0u);
  ASSERT_GT(engine.resets(), 0u);
  obs::MetricsRegistry& m = tel.metrics();
  EXPECT_EQ(m.counter("mntp.rounds")->value(), engine.rounds());
  EXPECT_EQ(m.counter("mntp.deferrals")->value(), engine.deferrals());
  EXPECT_EQ(m.counter("mntp.resets")->value(), engine.resets());
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
    const auto outcome = static_cast<SampleOutcome>(i);
    sampled += engine.outcome_count(outcome);
    EXPECT_EQ(
        m.counter("mntp.sample", {{"outcome", to_string(outcome)}})->value(),
        engine.outcome_count(outcome))
        << to_string(outcome);
  }
  // One record per round that had offsets, each with one outcome.
  EXPECT_EQ(sampled, engine.records().size());
}

TEST(MntpClient, AppliedCorrectionsKeepFreeRunningClockTight) {
  // Free-running drifting clock; MNTP applies accepted offsets as steps.
  ntp::TestbedConfig config;
  config.seed = 304;
  config.wireless = true;
  config.ntp_correction = false;
  config.client_clock.constant_skew_ppm = -15.0;
  ntp::Testbed bed(config);
  MntpParams params = head_to_head_params();
  params.apply_corrections_to_clock = true;
  MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                    params, bed.fork_rng());
  bed.start();
  client.start();
  double worst = 0.0;
  for (int m = 10; m <= 60; m += 5) {
    bed.sim().run_until(TimePoint::epoch() + Duration::minutes(m));
    worst = std::max(worst, std::abs(bed.true_clock_offset_ms()));
  }
  // Uncorrected the clock would drift to ~-54 ms; MNTP holds it far
  // tighter (the bound allows for pre-bootstrap drift and spike slop).
  EXPECT_LT(worst, 35.0);
  EXPECT_LT(std::abs(bed.true_clock_offset_ms()), 20.0);
}

TEST(MntpClient, FalseTickersInPoolRejectedDuringWarmup) {
  ntp::TestbedConfig config;
  config.seed = 305;
  config.wireless = false;  // clean channel isolates the vote logic
  config.ntp_correction = false;
  config.pool.false_ticker_count = 2;
  config.pool.false_ticker_offset_s = 0.4;
  ntp::Testbed bed(config);
  MntpParams params;
  params.warmup_period = Duration::minutes(3);
  params.warmup_wait_time = Duration::seconds(10);
  params.min_warmup_samples = 8;
  // Wired run: hints come from the idle wireless channel (favorable).
  MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                    params, bed.fork_rng());
  bed.start();
  client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(10));
  // Accepted warm-up offsets must sit near zero despite 400 ms tickers
  // being drawn into rounds regularly.
  const auto offsets = client.engine().accepted_offsets_ms();
  ASSERT_GT(offsets.size(), 5u);
  for (double o : offsets) {
    EXPECT_LT(std::fabs(o), 150.0) << "ticker leaked through the vote";
  }
}

TEST(MntpClient, DeterministicPerSeed) {
  auto run = [] {
    ntp::TestbedConfig config;
    config.seed = 307;
    ntp::Testbed bed(config);
    MntpClient client(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
                      head_to_head_params(), bed.fork_rng());
    bed.start();
    client.start();
    bed.sim().run_until(TimePoint::epoch() + Duration::minutes(15));
    return client.engine().accepted_offsets_ms();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mntp::protocol
