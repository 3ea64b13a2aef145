// Drift filter and false-ticker rejection tests — the heart of MNTP.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/linreg.h"
#include "core/rng.h"
#include "mntp/drift_filter.h"
#include "mntp/false_ticker.h"
#include "obs/query_trace.h"

namespace mntp::protocol {
namespace {

using core::Duration;
using core::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::epoch() + Duration::from_seconds(s);
}

TEST(FalseTicker, FewerThanThreeAllSurvive) {
  EXPECT_EQ(reject_false_tickers(std::vector<double>{}).size(), 0u);
  EXPECT_EQ(reject_false_tickers(std::vector<double>{0.5}).size(), 1u);
  EXPECT_EQ(reject_false_tickers(std::vector<double>{0.5, -9.0}).size(), 2u);
}

TEST(FalseTicker, PositiveOutlierRejected) {
  const auto s = reject_false_tickers(std::vector<double>{0.001, 0.002, 0.350});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 1u);
}

TEST(FalseTicker, NegativeOutlierRejected) {
  const auto s = reject_false_tickers(std::vector<double>{0.001, -0.350, 0.002});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 2u);
}

TEST(FalseTicker, DegenerateGeometryKeepsAll) {
  // Two symmetric clusters: the sd gate would reject everything; the
  // fallback keeps all rather than stalling warm-up.
  const auto s = reject_false_tickers(std::vector<double>{-1.0, -1.0, 1.0, 1.0});
  EXPECT_EQ(s.size(), 4u);
}

TEST(FalseTicker, CombineAveragesSurvivors) {
  const std::vector<double> offsets{0.010, 0.020, 0.900};
  const auto s = reject_false_tickers(offsets);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NEAR(combine_surviving_offsets(offsets, s), 0.015, 1e-12);
}

TEST(FalseTicker, CombineThrowsOnEmpty) {
  const std::vector<double> offsets{1.0};
  EXPECT_THROW((void)combine_surviving_offsets(offsets, std::vector<std::size_t>{}),
               std::invalid_argument);
}

// ---- DriftFilter ----

TEST(DriftFilter, BootstrapAcceptsUnconditionally) {
  DriftFilter f({.bootstrap_samples = 5});
  for (int i = 0; i < 5; ++i) {
    const auto d = f.offer(at_s(i * 5.0), i == 2 ? 0.8 : 0.001 * i);
    EXPECT_TRUE(d.accepted);
    EXPECT_TRUE(d.bootstrap);
  }
  EXPECT_FALSE(f.bootstrapping());
}

TEST(DriftFilter, BootstrapCompletionIsLatched) {
  // Pruning at bootstrap end may drop samples below the bootstrap count;
  // the filter must not re-enter the unconditional-accept mode.
  DriftFilter f({.bootstrap_samples = 6});
  for (int i = 0; i < 5; ++i) (void)f.offer(at_s(i * 5.0), 0.0);
  (void)f.offer(at_s(25.0), 0.5);  // outlier inside bootstrap, pruned at end
  EXPECT_FALSE(f.bootstrapping());
  const auto d = f.offer(at_s(30.0), 0.4);
  EXPECT_FALSE(d.accepted);  // regular gate active despite pruning
}

TEST(DriftFilter, EstimatesDriftSlope) {
  DriftFilter f({.bootstrap_samples = 10});
  // -5.5 ppm drift sampled every 5 s over 10 minutes with small noise.
  core::Rng rng(1);
  for (int i = 0; i < 120; ++i) {
    (void)f.offer(at_s(i * 5.0), -5.5e-6 * i * 5.0 + rng.normal(0, 0.0002));
  }
  const auto drift = f.drift_s_per_s();
  ASSERT_TRUE(drift.has_value());
  EXPECT_NEAR(*drift * 1e6, -5.5, 0.5);  // in ppm
}

TEST(DriftFilter, RejectsTrendOutlier) {
  DriftFilter f({.bootstrap_samples = 10});
  for (int i = 0; i < 20; ++i) (void)f.offer(at_s(i * 5.0), 0.001);
  const auto d = f.offer(at_s(105.0), 0.300);
  EXPECT_FALSE(d.accepted);
  EXPECT_NEAR(d.residual_s, 0.299, 0.01);
  EXPECT_EQ(f.rejected_count(), 1u);
}

TEST(DriftFilter, AcceptsWithinBandSamples) {
  DriftFilter f({.bootstrap_samples = 10, .min_accept_band_s = 0.015});
  for (int i = 0; i < 20; ++i) (void)f.offer(at_s(i * 5.0), 0.0);
  const auto d = f.offer(at_s(105.0), 0.010);  // within the 15 ms floor
  EXPECT_TRUE(d.accepted);
}

TEST(DriftFilter, PredictsAlongTrend) {
  DriftFilter f({.bootstrap_samples = 5});
  for (int i = 0; i < 10; ++i) (void)f.offer(at_s(i * 10.0), 0.001 * i);
  const auto p = f.predict_s(at_s(200.0));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 0.020, 1e-4);
}

TEST(DriftFilter, ReestimationTracksChangingSkew) {
  // Slope changes midway; with per-sample re-estimation the filter keeps
  // accepting, without it the gate eventually rejects the new regime.
  auto run = [](bool reestimate) {
    DriftFilter f({.bootstrap_samples = 10,
                   .reestimate_each_sample = reestimate,
                   .stats_window = 20,
                   .min_accept_band_s = 0.005});
    std::size_t rejected = 0;
    double offset = 0.0;
    for (int i = 0; i < 200; ++i) {
      const double slope = i < 60 ? 2e-6 : 30e-6;  // skew regime change
      offset += slope * 5.0;
      if (!f.offer(at_s(i * 5.0), offset).accepted) ++rejected;
    }
    return rejected;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(DriftFilter, HasPredictionDistinguishesZeroCrossingFromNoTrend) {
  // A trend through (0 s, +1) and (2 s, -1) predicts exactly 0.0 at
  // t = 1 s; the decision must still say has_prediction so callers do
  // not mistake it for "no trend yet".
  DriftFilter f({.bootstrap_samples = 2});
  const auto d0 = f.offer(at_s(0.0), 1.0);
  EXPECT_TRUE(d0.accepted);
  EXPECT_FALSE(d0.has_prediction);  // no fit exists before 2 samples
  (void)f.offer(at_s(2.0), -1.0);
  const auto d = f.offer(at_s(1.0), 0.5);
  EXPECT_TRUE(d.has_prediction);
  EXPECT_DOUBLE_EQ(d.predicted_s, 0.0);
  EXPECT_DOUBLE_EQ(d.residual_s, 0.5);
}

TEST(DriftFilter, ConsecutiveRejectionEscapeRecoversRunawayTrend) {
  // Regression for rejection starvation: a trend mis-fitted from a
  // short noisy bootstrap (here a spurious 2000 ppm slope) rejects
  // every later sample, and because the gate statistics only see
  // accepted samples, nothing ever corrects it. The escape hatch must
  // admit a sample after the configured run of rejections, after which
  // the fit re-converges and normal acceptance resumes.
  DriftFilter f({.bootstrap_samples = 4, .max_consecutive_rejections = 4});
  for (int i = 0; i < 4; ++i) (void)f.offer(at_s(i * 5.0), 2e-3 * i * 5.0);
  // Reality: the clock is actually flat at zero offset.
  int forced = 0, accepted_normally = 0;
  for (int i = 0; i < 20; ++i) {
    const auto d = f.offer(at_s(100.0 + i * 5.0), 0.0);
    if (d.forced) ++forced;
    if (d.accepted && !d.forced) ++accepted_normally;
  }
  EXPECT_EQ(forced, 1);  // one forced admission, then the gate re-opens
  EXPECT_GE(accepted_normally, 10);
  // The stale bootstrap points still tilt the fit slightly, but the
  // 2000 ppm runaway is gone by an order of magnitude.
  const auto drift = f.drift_s_per_s();
  ASSERT_TRUE(drift.has_value());
  EXPECT_LT(std::fabs(*drift), 2e-4);
}

TEST(DriftFilter, EscapeHatchDisabledRejectsForever) {
  DriftFilter f({.bootstrap_samples = 4, .max_consecutive_rejections = 0});
  for (int i = 0; i < 4; ++i) (void)f.offer(at_s(i * 5.0), 2e-3 * i * 5.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(f.offer(at_s(100.0 + i * 5.0), 0.0).accepted);
  }
  EXPECT_EQ(f.rejected_count(), 20u);
}

TEST(DriftFilter, ResetClearsState) {
  DriftFilter f({.bootstrap_samples = 3});
  for (int i = 0; i < 5; ++i) (void)f.offer(at_s(i), 0.0);
  f.reset();
  EXPECT_TRUE(f.bootstrapping());
  EXPECT_EQ(f.accepted_count(), 0u);
  EXPECT_FALSE(f.drift_s_per_s().has_value());
  EXPECT_FALSE(f.predict_s(at_s(10)).has_value());
}

TEST(DriftFilter, PruneDropsBootstrapOutliers) {
  DriftFilter f({.bootstrap_samples = 12});
  for (int i = 0; i < 11; ++i) (void)f.offer(at_s(i * 5.0), 0.001);
  (void)f.offer(at_s(55.0), 0.700);  // 12th sample completes bootstrap
  // The 700 ms bootstrap outlier must not drag the trend: prediction
  // stays near 1 ms.
  const auto p = f.predict_s(at_s(60.0));
  ASSERT_TRUE(p.has_value());
  EXPECT_LT(std::fabs(*p - 0.001), 0.01);
}

TEST(DriftFilter, StatsWindowForgetsOldOutliers) {
  DriftFilter f({.bootstrap_samples = 10, .stats_window = 10,
                 .min_accept_band_s = 0.005});
  // Clean bootstrap, then a mildly noisy stretch, then verify a 50 ms
  // outlier is rejected even though the *bootstrap* had contained noise.
  core::Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    (void)f.offer(at_s(i * 5.0), rng.normal(0.0, 0.002));
  }
  const auto d = f.offer(at_s(301.0), 0.050);
  EXPECT_FALSE(d.accepted);
}

TEST(DriftFilter, MinimumTwoBootstrapSamples) {
  DriftFilter f({.bootstrap_samples = 0});  // clamped up to 2
  (void)f.offer(at_s(0), 0.0);
  EXPECT_TRUE(f.bootstrapping());
  (void)f.offer(at_s(5), 0.0);
  EXPECT_FALSE(f.bootstrapping());
}

// ---- DriftFilter against a reference that always computes the gate ----

// The drift filter as specified: every regular-phase offer computes the
// mean + sd window gate, floored at min_accept_band_s², and judges the
// sample against it. DriftFilter skips the window pass when the sample
// is inside the band; this reference never does. Sample bookkeeping and
// fit arithmetic mirror DriftFilter step for step, so every decision and
// every double must agree bit for bit.
class ReferenceDriftFilter {
 public:
  explicit ReferenceDriftFilter(DriftFilterConfig config) : config_(config) {
    if (config_.bootstrap_samples < 2) config_.bootstrap_samples = 2;
  }

  FilterDecision offer(TimePoint t, double offset_s) {
    FilterDecision d;
    const double ts = t.to_seconds();
    gate_sq_ = 0.0;
    if (!bootstrap_done_) {
      d.accepted = true;
      d.bootstrap = true;
      if (fit_) {
        d.has_prediction = true;
        d.predicted_s = fit_->predict(ts);
        d.residual_s = offset_s - d.predicted_s;
      }
      samples_.push_back({ts, offset_s});
      acc_.add(ts, offset_s);
      fit_ = acc_.fit();
      if (samples_.size() >= config_.bootstrap_samples) {
        bootstrap_done_ = true;
        prune();
      }
      return d;
    }
    if (!fit_) rebuild();
    if (fit_) {
      d.has_prediction = true;
      d.predicted_s = fit_->predict(ts);
      d.residual_s = offset_s - d.predicted_s;
      const std::size_t begin =
          config_.stats_window > 0 && samples_.size() > config_.stats_window
              ? samples_.size() - config_.stats_window
              : 0;
      const auto n = static_cast<double>(samples_.size() - begin);
      std::vector<double> sq;
      double mean_sq = 0.0;
      for (std::size_t i = begin; i < samples_.size(); ++i) {
        const double r = samples_[i].offset_s - fit_->predict(samples_[i].t_s);
        sq.push_back(r * r);
        mean_sq += r * r;
      }
      mean_sq /= n;
      double var_sq = 0.0;
      for (const double v : sq) var_sq += (v - mean_sq) * (v - mean_sq);
      var_sq /= n;
      const double band = config_.min_accept_band_s;
      gate_sq_ = std::max(mean_sq + std::sqrt(var_sq), band * band);
      if (d.residual_s * d.residual_s > gate_sq_) {
        if (config_.max_consecutive_rejections == 0 ||
            consecutive_rejections_ < config_.max_consecutive_rejections) {
          ++rejected_;
          ++consecutive_rejections_;
          return d;
        }
        d.forced = true;
      }
      consecutive_rejections_ = 0;
    }
    d.accepted = true;
    samples_.push_back({ts, offset_s});
    if (config_.max_samples > 0 && samples_.size() > config_.max_samples) {
      samples_.erase(samples_.begin());
      if (config_.reestimate_each_sample) rebuild();
    } else if (config_.reestimate_each_sample) {
      acc_.add(ts, offset_s);
      fit_ = acc_.fit();
    }
    return d;
  }

  /// The gate the last regular-phase offer was judged against (0 for a
  /// bootstrap offer).
  [[nodiscard]] double gate_sq() const { return gate_sq_; }
  [[nodiscard]] std::size_t accepted_count() const { return samples_.size(); }
  [[nodiscard]] std::size_t rejected_count() const { return rejected_; }
  [[nodiscard]] std::optional<double> drift_s_per_s() const {
    if (!fit_) return std::nullopt;
    return fit_->slope;
  }

 private:
  struct Sample {
    double t_s;
    double offset_s;
  };

  void rebuild() {
    acc_.reset();
    for (const Sample& s : samples_) acc_.add(s.t_s, s.offset_s);
    fit_ = acc_.fit();
  }

  void prune() {
    if (samples_.size() < 3 || !fit_) return;
    std::vector<double> sq;
    double mean_sq = 0.0;
    for (const Sample& s : samples_) {
      const double r = s.offset_s - fit_->predict(s.t_s);
      sq.push_back(r * r);
      mean_sq += r * r;
    }
    mean_sq /= static_cast<double>(samples_.size());
    double var = 0.0;
    for (const double v : sq) var += (v - mean_sq) * (v - mean_sq);
    var /= static_cast<double>(samples_.size());
    const double gate = mean_sq + std::sqrt(var);
    if (std::count_if(sq.begin(), sq.end(),
                      [gate](double v) { return v <= gate; }) < 2) {
      return;
    }
    std::vector<Sample> kept;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      if (sq[i] <= gate) kept.push_back(samples_[i]);
    }
    samples_ = std::move(kept);
    rebuild();
  }

  DriftFilterConfig config_;
  std::vector<Sample> samples_;
  core::IncrementalLinReg acc_;
  std::optional<core::LinearFit> fit_;
  double gate_sq_ = 0.0;
  std::size_t rejected_ = 0;
  std::size_t consecutive_rejections_ = 0;
  bool bootstrap_done_ = false;
};

/// Bitwise double equality (two NaNs of the same bits compare equal).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::optional<double> a, std::optional<double> b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

/// Feed `offsets_s` (one sample every 5 s) through DriftFilter and the
/// reference; every decision, count and the drift must match exactly.
/// Returns the number of accepted regular-phase samples that fell
/// inside the band, so callers can check their stream exercised it.
std::size_t expect_matches_reference(const DriftFilterConfig& config,
                                     const std::vector<double>& offsets_s) {
  DriftFilter filter(config);
  ReferenceDriftFilter reference(config);
  const double band_sq = config.min_accept_band_s * config.min_accept_band_s;
  std::size_t in_band = 0;
  for (std::size_t i = 0; i < offsets_s.size(); ++i) {
    const TimePoint t = at_s(static_cast<double>(i) * 5.0);
    const FilterDecision got = filter.offer(t, offsets_s[i]);
    const FilterDecision want = reference.offer(t, offsets_s[i]);
    EXPECT_EQ(got.accepted, want.accepted) << "sample " << i;
    EXPECT_EQ(got.has_prediction, want.has_prediction) << "sample " << i;
    EXPECT_TRUE(same_bits(got.predicted_s, want.predicted_s)) << "sample " << i;
    EXPECT_TRUE(same_bits(got.residual_s, want.residual_s)) << "sample " << i;
    EXPECT_EQ(got.bootstrap, want.bootstrap) << "sample " << i;
    EXPECT_EQ(got.forced, want.forced) << "sample " << i;
    EXPECT_EQ(filter.accepted_count(), reference.accepted_count())
        << "sample " << i;
    EXPECT_EQ(filter.rejected_count(), reference.rejected_count())
        << "sample " << i;
    EXPECT_TRUE(same_bits(filter.drift_s_per_s(), reference.drift_s_per_s()))
        << "sample " << i;
    if (got.accepted && !got.bootstrap &&
        got.residual_s * got.residual_s <= band_sq) {
      ++in_band;
    }
  }
  return in_band;
}

/// 40 ppm trend plus N(0, sd) noise; every `outlier_every`-th sample
/// (when non-zero) is displaced by `outlier_s`.
std::vector<double> trend_stream(std::uint64_t seed, std::size_t n, double sd,
                                 std::size_t outlier_every = 0,
                                 double outlier_s = 0.0) {
  core::Rng rng(seed);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    double v = 40e-6 * static_cast<double>(i) * 5.0 + rng.normal(0.0, sd);
    if (outlier_every > 0 && i % outlier_every == outlier_every - 1) {
      v += rng.uniform(0.0, 1.0) < 0.5 ? outlier_s : -outlier_s;
    }
    out.push_back(v);
  }
  return out;
}

TEST(DriftFilterReference, InBandStreamMatches) {
  const DriftFilterConfig config;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_GT(expect_matches_reference(config, trend_stream(seed, 600, 0.002)),
              500u);
  }
}

TEST(DriftFilterReference, OutOfBandStreamMatches) {
  const DriftFilterConfig config;
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    // 20 ms noise straddles the 15 ms band; every 7th sample is a
    // 200 ms spike the gate must reject.
    EXPECT_GT(expect_matches_reference(
                  config, trend_stream(seed, 600, 0.020, 7, 0.200)),
              0u);
  }
}

TEST(DriftFilterReference, ZeroBandStreamMatches) {
  DriftFilterConfig config;
  config.min_accept_band_s = 0.0;
  for (const std::uint64_t seed : {7u, 8u}) {
    (void)expect_matches_reference(config,
                                   trend_stream(seed, 600, 0.003, 11, 0.05));
  }
  // A residual of exactly zero is "in band" even with no band.
  std::vector<double> flat(100, 0.0);
  EXPECT_GT(expect_matches_reference(config, flat), 0u);
}

TEST(DriftFilterReference, EscapeHatchStreamMatches) {
  DriftFilterConfig config;
  config.max_consecutive_rejections = 3;
  // A 300 ms step after 200 samples: the gate rejects the new level
  // until the hatch admits enough of it to move the trend.
  std::vector<double> stream = trend_stream(9, 600, 0.004);
  for (std::size_t i = 200; i < stream.size(); ++i) stream[i] += 0.300;
  (void)expect_matches_reference(config, stream);
  DriftFilter filter(config);
  std::size_t forced = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const TimePoint t = at_s(static_cast<double>(i) * 5.0);
    forced += filter.offer(t, stream[i]).forced;
  }
  EXPECT_GT(forced, 0u);
}

TEST(DriftFilterReference, WindowEvictionStreamMatches) {
  DriftFilterConfig config;
  config.max_samples = 32;
  config.stats_window = 16;
  EXPECT_GT(expect_matches_reference(config,
                                     trend_stream(10, 600, 0.010, 9, 0.1)),
            0u);
  config.reestimate_each_sample = false;
  (void)expect_matches_reference(config, trend_stream(11, 600, 0.010, 9, 0.1));
}

TEST(DriftFilterReference, ResidualExactlyAtBandMatches) {
  // Samples whose residual against the live trend is exactly ±band, so
  // err² == band² bit for bit: the boundary case of the skip.
  for (const std::uint64_t seed : {12u, 13u}) {
    const DriftFilterConfig config;
    const double band = config.min_accept_band_s;
    DriftFilter probe(config);
    std::vector<double> stream = trend_stream(seed, 300, 0.006);
    std::size_t exact = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const TimePoint t = at_s(static_cast<double>(i) * 5.0);
      if (i % 5 == 4) {
        const auto pred = probe.predict_s(t);
        if (pred && !probe.bootstrapping()) {
          // Nudge until the subtraction the filter performs is exact.
          const double target = i % 10 == 4 ? band : -band;
          const double inf = std::numeric_limits<double>::infinity();
          double v = *pred + target;
          for (int k = 0; k < 64 && v - *pred != target; ++k) {
            v = std::nextafter(v, v - *pred < target ? inf : -inf);
          }
          if (v - *pred == target) {
            stream[i] = v;
            ++exact;
          }
        }
      }
      (void)probe.offer(t, stream[i]);
    }
    ASSERT_GT(exact, 20u);
    EXPECT_GT(expect_matches_reference(config, stream), 0u);
  }
}

TEST(DriftFilterReference, NanResidualMatches) {
  std::vector<double> stream = trend_stream(14, 100, 0.002);
  stream[50] = std::numeric_limits<double>::quiet_NaN();
  (void)expect_matches_reference(DriftFilterConfig{}, stream);
}

TEST(DriftFilterReference, TracedInBandSampleReportsWindowThreshold) {
  // An ambient traced query still gets the threshold the sample was
  // judged against — the window gate, not just the band floor — even
  // though the verdict (accept) was never in doubt.
  const DriftFilterConfig config;
  DriftFilter filter(config);
  ReferenceDriftFilter reference(config);
  const std::vector<double> stream = trend_stream(15, 200, 0.030);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const TimePoint t = at_s(static_cast<double>(i) * 5.0);
    (void)filter.offer(t, stream[i]);
    (void)reference.offer(t, stream[i]);
  }
  const TimePoint t = at_s(1000.0);
  const double in_band = *filter.predict_s(t) + 0.001;

  obs::QueryTracer tracer;
  tracer.set_enabled(true);
  const obs::QueryId id = tracer.begin(t, "round");
  FilterDecision d;
  {
    obs::ActiveQueryScope scope(tracer, id);
    d = filter.offer(t, in_band);
  }
  (void)reference.offer(t, in_band);
  ASSERT_TRUE(d.accepted);
  // 30 ms noise puts the window gate well above the 15 ms band.
  const double band = config.min_accept_band_s;
  ASSERT_GT(reference.gate_sq(), band * band);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].stages.size(), 1u);
  const obs::QueryStage& stage = traces[0].stages[0];
  EXPECT_EQ(stage.stage, "drift_filter");
  EXPECT_EQ(stage.reason, obs::Reason::kOk);
  bool found = false;
  for (const obs::Field& f : stage.fields) {
    if (f.key != "threshold_ms") continue;
    found = true;
    EXPECT_EQ(std::get<double>(f.value), std::sqrt(reference.gate_sq()) * 1e3);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mntp::protocol
