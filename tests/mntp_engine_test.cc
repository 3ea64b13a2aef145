#include "mntp/engine.h"

#include <gtest/gtest.h>

namespace mntp::protocol {
namespace {

using core::Duration;
using core::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::epoch() + Duration::from_seconds(s);
}

MntpParams fast_params() {
  MntpParams p;
  p.warmup_period = Duration::minutes(2);
  p.warmup_wait_time = Duration::seconds(10);
  p.regular_wait_time = Duration::seconds(30);
  p.reset_period = Duration::hours(1);
  p.min_warmup_samples = 5;
  return p;
}

net::WirelessHints good_hints() {
  return {.when = TimePoint::epoch(),
          .rssi = core::Dbm{-60.0},
          .noise = core::Dbm{-92.0}};
}

net::WirelessHints bad_hints() {
  return {.when = TimePoint::epoch(),
          .rssi = core::Dbm{-80.0},
          .noise = core::Dbm{-65.0}};
}

TEST(HintThresholds, PaperBaselineValues) {
  const HintThresholds t;
  EXPECT_DOUBLE_EQ(t.min_rssi.value(), -75.0);
  EXPECT_DOUBLE_EQ(t.max_noise.value(), -70.0);
  EXPECT_DOUBLE_EQ(t.min_snr_margin.value(), 20.0);
}

TEST(HintThresholds, AllThreeConditionsRequired) {
  const HintThresholds t;
  EXPECT_TRUE(t.favorable(good_hints()));
  // RSSI fails.
  EXPECT_FALSE(t.favorable({.when = {}, .rssi = core::Dbm{-76.0},
                            .noise = core::Dbm{-99.0}}));
  // Noise fails.
  EXPECT_FALSE(t.favorable({.when = {}, .rssi = core::Dbm{-40.0},
                            .noise = core::Dbm{-65.0}}));
  // SNR margin fails (RSSI -72 > -75 ok, noise -88 < -70 ok, margin 16).
  EXPECT_FALSE(t.favorable({.when = {}, .rssi = core::Dbm{-72.0},
                            .noise = core::Dbm{-88.0}}));
}

TEST(MntpEngine, StartsInWarmupAndQueriesMultipleSources) {
  MntpEngine e(fast_params(), TimePoint::epoch());
  EXPECT_EQ(e.phase(), Phase::kWarmup);
  EXPECT_EQ(e.wake(at_s(0), good_hints()).sources, 3u);
  EXPECT_EQ(e.next_wait(), Duration::seconds(10));
}

TEST(MntpEngine, TransitionsToRegularAfterPeriodAndSamples) {
  MntpEngine e(fast_params(), TimePoint::epoch());
  double t = 0.0;
  bool completed = false;
  for (int i = 0; i < 20 && !completed; ++i) {
    const auto rr = e.on_round(at_s(t), {0.001, 0.002, 0.0});
    completed = rr.warmup_completed;
    t += 10.0;
  }
  EXPECT_TRUE(completed);
  EXPECT_EQ(e.phase(), Phase::kRegular);
  EXPECT_EQ(e.wake(at_s(t), good_hints()).sources, 1u);
  EXPECT_EQ(e.next_wait(), Duration::seconds(30));
  // Transition at >= warmup_period with >= 5 samples: t=120 earliest.
  EXPECT_GE(t, 120.0);
}

TEST(MntpEngine, WarmupWaitsForEnoughSamples) {
  // Feed empty rounds (all queries failed): warm-up must not complete
  // even long after the period elapses.
  MntpEngine e(fast_params(), TimePoint::epoch());
  for (int i = 0; i < 50; ++i) {
    const auto rr = e.on_round(at_s(i * 10.0), {});
    EXPECT_FALSE(rr.warmup_completed);
  }
  EXPECT_EQ(e.phase(), Phase::kWarmup);
}

TEST(MntpEngine, ResetPeriodRestartsCycle) {
  MntpParams p = fast_params();
  p.reset_period = Duration::minutes(10);
  MntpEngine e(p, TimePoint::epoch());
  double t = 0.0;
  // Drive through warm-up into regular.
  for (int i = 0; i < 15; ++i) {
    (void)e.on_round(at_s(t), {0.001, 0.0, 0.002});
    t += 10.0;
  }
  EXPECT_EQ(e.phase(), Phase::kRegular);
  // Jump past the reset period.
  const auto rr = e.on_round(at_s(601.0), {0.001});
  EXPECT_TRUE(rr.reset_occurred);
  EXPECT_EQ(e.phase(), Phase::kWarmup);
  EXPECT_EQ(e.resets(), 1u);
}

TEST(MntpEngine, FalseTickerRejectedInWarmupRound) {
  MntpEngine e(fast_params(), TimePoint::epoch());
  const auto rr = e.on_round(at_s(0), {0.001, 0.002, 0.350});
  EXPECT_TRUE(rr.accepted);
  // Combined offset excludes the 350 ms false ticker.
  EXPECT_NEAR(rr.offset_s, 0.0015, 1e-9);
}

TEST(MntpEngine, DeferralsCounted) {
  MntpEngine e(fast_params(), TimePoint::epoch());
  const MntpEngine::Wake open = e.wake(at_s(0), good_hints());
  EXPECT_EQ(open.gate, obs::Reason::kOk);
  EXPECT_TRUE(open.emits());
  EXPECT_EQ(open.sources, 3u);  // warm-up fans out
  const MntpEngine::Wake closed = e.wake(at_s(1), bad_hints());
  EXPECT_EQ(closed.gate, obs::Reason::kChannelDefer);
  EXPECT_FALSE(closed.emits());
  EXPECT_EQ(closed.sources, 0u);
  EXPECT_EQ(closed.recheck_after, fast_params().hint_recheck_interval);
  (void)e.wake(at_s(2), bad_hints());
  EXPECT_EQ(e.deferrals(), 2u);
  EXPECT_EQ(e.forced_emissions(), 0u);
}

TEST(MntpEngine, MaxDeferralForcesOneEmissionPerWindow) {
  MntpParams p = fast_params();
  p.max_deferral = Duration::seconds(10);
  MntpEngine e(p, TimePoint::epoch());
  // The window counts from the start: nothing was emitted yet.
  EXPECT_FALSE(e.wake(at_s(5), bad_hints()).emits());
  EXPECT_FALSE(e.wake(at_s(10), bad_hints()).emits());  // not yet over
  const MntpEngine::Wake forced = e.wake(at_s(11), bad_hints());
  EXPECT_EQ(forced.gate, obs::Reason::kForcedEmission);
  EXPECT_EQ(forced.sources, 3u);
  // A forced emission restarts the window, and so does a favourable one.
  EXPECT_FALSE(e.wake(at_s(12), bad_hints()).emits());
  EXPECT_EQ(e.wake(at_s(13), good_hints()).gate, obs::Reason::kOk);
  EXPECT_FALSE(e.wake(at_s(23), bad_hints()).emits());
  EXPECT_EQ(e.wake(at_s(24), bad_hints()).gate, obs::Reason::kForcedEmission);
  EXPECT_EQ(e.forced_emissions(), 2u);
  EXPECT_EQ(e.deferrals(), 4u);
}

TEST(MntpEngine, HeadToHeadModeSkipsWarmupPhase) {
  MntpEngine e(head_to_head_params(), TimePoint::epoch());
  EXPECT_EQ(e.phase(), Phase::kRegular);
  EXPECT_EQ(e.wake(at_s(0), good_hints()).sources, 1u);
  EXPECT_EQ(e.next_wait(), Duration::seconds(5));
}

TEST(MntpEngine, RegularPhaseRejectsSpikes) {
  MntpEngine e(head_to_head_params(), TimePoint::epoch());
  double t = 0.0;
  for (int i = 0; i < 15; ++i) {  // bootstrap the filter
    (void)e.on_round(at_s(t), {0.002});
    t += 5.0;
  }
  const auto rr = e.on_round(at_s(t), {0.400});
  EXPECT_FALSE(rr.accepted);
  EXPECT_EQ(rr.outcome, SampleOutcome::kRejectedFilter);
  EXPECT_EQ(e.rejected_offsets_ms().size(), 1u);
}

TEST(MntpEngine, RecordsCarryPhaseAndOutcome) {
  MntpEngine e(fast_params(), TimePoint::epoch());
  (void)e.on_round(at_s(0), {0.001, 0.002, 0.003});
  ASSERT_EQ(e.records().size(), 1u);
  EXPECT_EQ(e.records()[0].phase, Phase::kWarmup);
  EXPECT_EQ(e.records()[0].outcome, SampleOutcome::kAcceptedWarmup);
  EXPECT_TRUE(e.records()[0].bootstrap);
  EXPECT_EQ(e.accepted_offsets_ms().size(), 1u);
  // Bootstrap acceptances carry no meaningful trend residual.
  EXPECT_EQ(e.corrected_offsets_ms().size(), 0u);
}

TEST(MntpEngine, ClockStepKeepsTrendConsistent) {
  // Drifting clock, driver steps it after each accepted regular sample;
  // the engine's uncorrected-domain trend must keep accepting.
  MntpParams p = head_to_head_params();
  p.apply_corrections_to_clock = true;
  MntpEngine e(p, TimePoint::epoch());
  double true_uncorrected = 0.0;
  double stepped = 0.0;
  std::size_t rejections = 0;
  for (int i = 0; i < 100; ++i) {
    true_uncorrected += 20e-6 * 5.0;  // 20 ppm drift per 5 s round
    const double measured = true_uncorrected - stepped;
    const auto rr = e.on_round(at_s(i * 5.0), {measured});
    if (rr.accepted && i > 20) {
      stepped += rr.offset_s;  // driver steps by the measured offset
      e.note_clock_step(rr.offset_s);
    }
    if (!rr.accepted) ++rejections;
  }
  EXPECT_EQ(rejections, 0u);
  const auto drift = e.drift_s_per_s();
  ASSERT_TRUE(drift.has_value());
  EXPECT_NEAR(*drift * 1e6, 20.0, 2.0);
}

TEST(MntpEngine, FrequencyCompensationTracked) {
  MntpParams p = head_to_head_params();
  MntpEngine e(p, TimePoint::epoch());
  for (int i = 0; i < 12; ++i) (void)e.on_round(at_s(i * 5.0), {0.0});
  // Driver trims the clock by +10 ppm at t=60: measured offsets start
  // decreasing by 10 us/s, but predictions must track.
  e.note_frequency_compensation(at_s(60.0), 10.0);
  for (int i = 12; i < 40; ++i) {
    const double t = i * 5.0;
    const double measured = -10e-6 * (t - 60.0);
    const auto rr = e.on_round(at_s(t), {measured});
    ASSERT_TRUE(rr.accepted) << "round " << i;
  }
  // Prediction of the *measured* offset includes the compensation.
  const auto pred = e.predict_offset_s(at_s(260.0));
  ASSERT_TRUE(pred.has_value());
  EXPECT_NEAR(*pred, -10e-6 * 200.0, 5e-4);
}

TEST(MntpEngine, EmptyRoundProducesNoRecord) {
  MntpEngine e(fast_params(), TimePoint::epoch());
  const auto rr = e.on_round(at_s(0), {});
  EXPECT_FALSE(rr.accepted);
  EXPECT_TRUE(e.records().empty());
  EXPECT_EQ(e.rounds(), 1u);
}

TEST(MntpEngine, RejectedSampleUsesResidualWhenTrendPredictsExactlyZero) {
  // Regression: corrected_s used to branch on the float sentinel
  // `predicted_s != 0.0`, so a rejected sample whose trend legitimately
  // predicted exactly 0.0 s fell back to the raw measured offset. Build
  // an *uncorrected-domain* trend crossing zero (a clock step shifts the
  // uncorrected domain away from the measured one so the two answers
  // differ) and check the residual is reported.
  MntpParams p = head_to_head_params();
  p.min_warmup_samples = 2;
  MntpEngine e(p, TimePoint::epoch());
  // The driver stepped the clock by -1 s before any round: uncorrected
  // offsets are measured + 1.
  e.note_clock_step(1.0);
  // Uncorrected trend through (0 s, 2.0) and (2 s, 1.0): slope -0.5,
  // predicts exactly 0.0 at t = 4 s.
  ASSERT_TRUE(e.on_round(at_s(0.0), {1.0}).accepted);
  ASSERT_TRUE(e.on_round(at_s(2.0), {0.0}).accepted);
  // Far-off sample at the zero crossing: rejected by the gate.
  const auto rr = e.on_round(at_s(4.0), {4.0});
  ASSERT_FALSE(rr.accepted);
  EXPECT_EQ(rr.outcome, SampleOutcome::kRejectedFilter);
  // Residual in the uncorrected domain: (4.0 + 1.0) - 0.0 = 5.0. The
  // sentinel bug reported the measured 4.0 instead.
  EXPECT_DOUBLE_EQ(rr.corrected_s, 5.0);
}

}  // namespace
}  // namespace mntp::protocol
