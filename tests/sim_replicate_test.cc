#include "sim/replicate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "obs/timeseries.h"

namespace mntp::sim {
namespace {

TEST(ReplicateSeed, ReplicateZeroIsIdentity) {
  // `--replicates 1` must BE the single-run experiment, bit for bit.
  EXPECT_EQ(replicate_seed(8, 0), 8u);
  EXPECT_EQ(replicate_seed(777, 0), 777u);
  EXPECT_EQ(replicate_seed(0, 0), 0u);
}

TEST(ReplicateSeed, StreamsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::size_t r = 0; r < 256; ++r) {
    seen.insert(replicate_seed(8, r));
  }
  EXPECT_EQ(seen.size(), 256u);
  // Derivation is a pure function: pinned values guard the on-disk
  // meaning of "--replicates K" against accidental reseeding changes.
  EXPECT_EQ(replicate_seed(8, 1), core::splitmix64(8));
  EXPECT_EQ(replicate_seed(8, 2),
            core::splitmix64(8 + 0x9E3779B97F4A7C15ull));
}

TEST(ReplicateSeed, PrefixStableUnderMoreReplicates) {
  // Adding replicates never perturbs earlier ones.
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(replicate_seed(42, r), replicate_seed(42, r));
  }
}

std::vector<MetricValue> seed_scenario(std::uint64_t seed,
                                       std::size_t replicate) {
  core::Rng rng(seed);
  return {
      {"seed_lo", static_cast<double>(seed & 0xffffffffu)},
      {"draw", rng.uniform(0.0, 1.0)},
      {"replicate", static_cast<double>(replicate)},
  };
}

TEST(ReplicationRunner, SerialAndParallelReportsAreBitIdentical) {
  ReplicationRunner serial({.replicates = 16, .threads = 1});
  ReplicationRunner parallel({.replicates = 16, .threads = 4});
  const ReplicateReport a = serial.run(8, seed_scenario);
  const ReplicateReport b = parallel.run(8, seed_scenario);

  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  EXPECT_EQ(a.base_seed, b.base_seed);
  EXPECT_EQ(a.replicates, b.replicates);
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
    ASSERT_EQ(a.metrics[i].per_replicate.size(),
              b.metrics[i].per_replicate.size());
    for (std::size_t r = 0; r < a.metrics[i].per_replicate.size(); ++r) {
      // Exact equality, not near: determinism is the contract.
      EXPECT_EQ(a.metrics[i].per_replicate[r], b.metrics[i].per_replicate[r])
          << a.metrics[i].name << " replicate " << r;
    }
    EXPECT_EQ(a.metrics[i].summary.median, b.metrics[i].summary.median);
    EXPECT_EQ(a.metrics[i].summary.mean, b.metrics[i].summary.mean);
  }
}

TEST(ReplicationRunner, ReplicateZeroUsesBaseSeedVerbatim) {
  ReplicationRunner runner({.replicates = 3, .threads = 1});
  const ReplicateReport report = runner.run(8, seed_scenario);
  const ReplicatedMetric* seed_lo = report.find("seed_lo");
  ASSERT_NE(seed_lo, nullptr);
  EXPECT_EQ(seed_lo->per_replicate[0], 8.0);
}

TEST(ReplicationRunner, ResultsIndexedByReplicateNotCompletionOrder) {
  ReplicationRunner runner({.replicates = 8, .threads = 4});
  const ReplicateReport report = runner.run(1, seed_scenario);
  const ReplicatedMetric* idx = report.find("replicate");
  ASSERT_NE(idx, nullptr);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(idx->per_replicate[r], static_cast<double>(r));
  }
}

TEST(ReplicationRunner, AggregatesSummaryAcrossReplicates) {
  ReplicationRunner runner({.replicates = 5, .threads = 1});
  const ReplicateReport report =
      runner.run(0, [](std::uint64_t, std::size_t replicate) {
        return std::vector<MetricValue>{
            {"value", static_cast<double>(replicate) * 10.0}};
      });
  const ReplicatedMetric* m = report.find("value");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->summary.count, 5u);
  EXPECT_DOUBLE_EQ(m->summary.median, 20.0);
  EXPECT_DOUBLE_EQ(m->summary.mean, 20.0);
  EXPECT_DOUBLE_EQ(m->summary.min, 0.0);
  EXPECT_DOUBLE_EQ(m->summary.max, 40.0);
  EXPECT_DOUBLE_EQ(report.median("value"), 20.0);
  EXPECT_DOUBLE_EQ(report.median("missing", -1.0), -1.0);
  EXPECT_EQ(report.find("missing"), nullptr);
}

TEST(ReplicationRunner, ZeroReplicatesClampedToOne) {
  ReplicationRunner runner({.replicates = 0, .threads = 1});
  const ReplicateReport report = runner.run(8, seed_scenario);
  EXPECT_EQ(report.replicates, 1u);
}

TEST(ReplicationRunner, MismatchedMetricNamesThrow) {
  ReplicationRunner runner({.replicates = 2, .threads = 1});
  EXPECT_THROW(
      (void)runner.run(0,
                       [](std::uint64_t, std::size_t replicate) {
                         return std::vector<MetricValue>{
                             {replicate == 0 ? "a" : "b", 1.0}};
                       }),
      std::runtime_error);
  EXPECT_THROW(
      (void)runner.run(0,
                       [](std::uint64_t, std::size_t replicate) {
                         std::vector<MetricValue> m{{"a", 1.0}};
                         if (replicate == 1) m.push_back({"extra", 2.0});
                         return m;
                       }),
      std::runtime_error);
}

ReplicateResult rich_scenario(std::uint64_t seed, std::size_t replicate) {
  core::Rng rng(seed);
  ReplicateResult r;
  r.metrics.push_back({"replicate", static_cast<double>(replicate)});
  DistributionValue offsets{"offset_ms", obs::HdrHistogram{}};
  DistributionValue residuals{"resid_ms", obs::HdrHistogram{}};
  for (int i = 0; i < 200; ++i) {
    offsets.histogram.record(rng.normal(0.0, 25.0));
    residuals.histogram.record(rng.lognormal(0.0, 1.0));
  }
  r.distributions.push_back(std::move(offsets));
  r.distributions.push_back(std::move(residuals));
  return r;
}

TEST(ReplicationRunner, RichScenarioMergesDistributionsAcrossReplicates) {
  ReplicationRunner runner({.replicates = 4, .threads = 1});
  const ReplicateReport report =
      runner.run(8, ReplicationRunner::RichScenario(rich_scenario));

  ASSERT_EQ(report.distributions.size(), 2u);
  EXPECT_EQ(report.distributions[0].name, "offset_ms");
  EXPECT_EQ(report.distributions[1].name, "resid_ms");
  // 4 replicates x 200 samples each land in the merged histogram.
  EXPECT_EQ(report.distributions[0].merged.count(), 800u);
  // Scalar metrics aggregate exactly as in the plain-scenario path.
  const ReplicatedMetric* idx = report.find("replicate");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->per_replicate.size(), 4u);
}

TEST(ReplicationRunner, RichScenarioThreadCountDoesNotChangeDistributions) {
  const ReplicationRunner::RichScenario scenario(rich_scenario);
  ReplicationRunner serial({.replicates = 8, .threads = 1});
  ReplicationRunner parallel({.replicates = 8, .threads = 4});
  const ReplicateReport a = serial.run(8, scenario);
  const ReplicateReport b = parallel.run(8, scenario);

  ASSERT_EQ(a.distributions.size(), b.distributions.size());
  for (std::size_t i = 0; i < a.distributions.size(); ++i) {
    EXPECT_EQ(a.distributions[i].name, b.distributions[i].name);
    // Bit-for-bit, not approximately: slot-order merging plus the
    // order-insensitive HdrHistogram::merge make --threads invisible.
    EXPECT_EQ(a.distributions[i].merged, b.distributions[i].merged);
  }
}

TEST(ReplicationRunner, RichScenarioMismatchedDistributionNamesThrow) {
  ReplicationRunner runner({.replicates = 2, .threads = 1});
  EXPECT_THROW(
      (void)runner.run(
          0, ReplicationRunner::RichScenario(
                 [](std::uint64_t, std::size_t replicate) {
                   ReplicateResult r;
                   r.metrics.push_back({"m", 1.0});
                   r.distributions.push_back(
                       {replicate == 0 ? "a" : "b", obs::HdrHistogram{}});
                   return r;
                 })),
      std::runtime_error);
}

TEST(ReplicationRunner, OnlyReplicateZeroRecordsTheTimeline) {
  // The runner owns the per-replicate timeline rule: replicate 0 (the
  // single-run experiment) records, every other replicate runs under a
  // TimeSeriesRecorder::SuppressScope, whichever worker runs it.
  for (const std::size_t threads : {1u, 4u}) {
    ReplicationRunner runner({.replicates = 8, .threads = threads});
    const ReplicateReport report =
        runner.run(5, [](std::uint64_t, std::size_t) {
          return std::vector<MetricValue>{
              {"suppressed",
               obs::TimeSeriesRecorder::suppressed() ? 1.0 : 0.0}};
        });
    const std::vector<double>& suppressed = report.metrics[0].per_replicate;
    ASSERT_EQ(suppressed.size(), 8u);
    EXPECT_EQ(suppressed[0], 0.0) << "threads " << threads;
    for (std::size_t r = 1; r < suppressed.size(); ++r) {
      EXPECT_EQ(suppressed[r], 1.0) << "threads " << threads << " replicate "
                                    << r;
    }
    EXPECT_FALSE(obs::TimeSeriesRecorder::suppressed());
  }
}

TEST(ReplicationRunner, ParallelRunInvokesEveryReplicateOnce) {
  std::atomic<int> calls{0};
  ReplicationRunner runner({.replicates = 32, .threads = 4});
  const ReplicateReport report =
      runner.run(3, [&calls](std::uint64_t seed, std::size_t) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return std::vector<MetricValue>{
            {"seed_hash", static_cast<double>(seed % 1000)}};
      });
  EXPECT_EQ(calls.load(), 32);
  EXPECT_EQ(report.metrics[0].per_replicate.size(), 32u);
}

}  // namespace
}  // namespace mntp::sim
