#include "obs/hdr_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"

namespace mntp::obs {
namespace {

// Exact nearest-rank quantile on a sorted copy: the reference the
// bucketed estimate must approximate within its relative-error bound.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  if (xs.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  rank = std::max<std::size_t>(1, std::min(rank, xs.size()));
  return xs[rank - 1];
}

TEST(HdrHistogram, EmptyIsZeroEverything) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.nan_count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(HdrHistogram, RelativeErrorBound) {
  // sub_bucket_bits = 5 => relative error <= 2^-6 ~ 1.57%.
  HdrHistogram h;
  core::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.lognormal(2.0, 1.5);  // spans several octaves
    xs.push_back(v);
    h.record(v);
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = exact_quantile(xs, q);
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.04) << "q=" << q;
  }
  // Extrema are exact regardless of bucketing.
  EXPECT_DOUBLE_EQ(h.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(h.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(HdrHistogram, NegativesZeroAndClamping) {
  HdrHistogram h;
  h.record(-50.0);
  h.record(-50.0);
  h.record(0.0);          // below min_magnitude: zero bucket
  h.record(1e-6);         // also zero bucket
  h.record(25.0);
  h.record(1e12);         // above max_magnitude: clamps into top bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), -50.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);  // min/max exact even when clamped
  // Median (rank 3 of 6) lands in the zero bucket.
  EXPECT_NEAR(h.quantile(0.5), 0.0, 1e-3);
  // Low quantile is negative, high is large.
  EXPECT_LT(h.quantile(0.1), -45.0);
  EXPECT_GT(h.quantile(0.99), 1e8);
}

TEST(HdrHistogram, NanCountedSeparately) {
  HdrHistogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum());  // NaN never poisons the moments
  EXPECT_FALSE(std::isnan(h.quantile(0.5)));
}

TEST(HdrHistogram, MergeEquivalentToSingleRecording) {
  core::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.normal(0.0, 40.0));

  HdrHistogram whole;
  for (double v : xs) whole.record(v);

  HdrHistogram a, b, c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(xs[i]);
  }
  HdrHistogram merged = a;
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged, whole);  // bit-for-bit, not approximately
}

TEST(HdrHistogram, MergeIsCommutativeAndAssociativeBitForBit) {
  core::Rng rng(13);
  HdrHistogram parts[4];
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 500; ++i) {
      parts[p].record(rng.lognormal(0.0, 2.0) - (p % 2 ? 100.0 : 0.0));
    }
  }
  // Left fold in order 0,1,2,3.
  HdrHistogram left = parts[0];
  for (int p = 1; p < 4; ++p) left.merge(parts[p]);
  // Reverse order.
  HdrHistogram right = parts[3];
  for (int p = 2; p >= 0; --p) right.merge(parts[p]);
  // Balanced tree: (0+1) + (2+3).
  HdrHistogram t01 = parts[0], t23 = parts[2];
  t01.merge(parts[1]);
  t23.merge(parts[3]);
  HdrHistogram tree = t01;
  tree.merge(t23);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left, tree);
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  EXPECT_DOUBLE_EQ(left.quantile(0.9), tree.quantile(0.9));
}

TEST(HdrHistogram, MergeRejectsLayoutMismatch) {
  HdrHistogram a;
  HdrHistogram b(HdrHistogramOptions{.sub_bucket_bits = 6});
  EXPECT_FALSE(a.same_layout(b));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(HdrHistogram, BucketsAscendAndSumToCount) {
  HdrHistogram h;
  core::Rng rng(17);
  for (int i = 0; i < 1000; ++i) h.record(rng.normal(0.0, 10.0));
  const auto buckets = h.buckets();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i].second;
    if (i > 0) {
      EXPECT_GT(buckets[i].first, buckets[i - 1].first);
    }
  }
  EXPECT_EQ(total, h.count());
}

TEST(ShardedHdrHistogram, ThreadCountDoesNotChangeMergedResult) {
  // The same multiset of samples recorded under different parallelism
  // must produce the same merged histogram — the property the replicated
  // benches rely on for --threads invariance.
  core::Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.normal(5.0, 100.0));

  std::vector<HdrHistogram> merged;
  for (std::size_t workers : {1u, 4u}) {
    MetricsRegistry reg;
    ShardedHdrHistogram* sh = reg.histogram("t");
    core::ThreadPool pool(workers);
    pool.parallel_for(0, 8, [&](std::size_t slot) {
      for (std::size_t i = slot; i < xs.size(); i += 8) sh->record(xs[i]);
    });
    merged.push_back(sh->merged());  // after the parallel join, per contract
  }
  EXPECT_EQ(merged[0], merged[1]);
  EXPECT_EQ(merged[0].count(), xs.size());
}

TEST(ShardedHdrHistogram, RegistrySnapshotExportsQuantiles) {
  MetricsRegistry reg;
  ShardedHdrHistogram* sh =
      reg.histogram("ntp.owd", {}, {{"dir", "up"}});
  for (int i = 1; i <= 100; ++i) sh->record(static_cast<double>(i));
  // Same (name, labels) returns the same handle; a different layout for
  // an existing name is a programming error.
  EXPECT_EQ(sh, reg.histogram("ntp.owd", {}, {{"dir", "up"}}));

  bool found = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name != "ntp.owd") continue;
    found = true;
    EXPECT_EQ(s.count, 100u);
    EXPECT_NEAR(s.p50, 50.0, 2.0);
    EXPECT_NEAR(s.p99, 99.0, 3.0);
    ASSERT_GE(s.buckets.size(), 2u);
    // Report-schema compatibility: ascending bounds, +inf terminal.
    EXPECT_TRUE(std::isinf(s.buckets.back().first));
    std::uint64_t total = 0;
    for (const auto& [le, n] : s.buckets) total += n;
    EXPECT_EQ(total, 100u);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mntp::obs
