#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mntp::obs {
namespace {

// HDR relative quantile/sum error bound at the default 5 sub-bucket bits.
constexpr double kHdrRelError = 1.0 / 64.0;

TEST(Counter, IncrementsAndReads) {
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(Counter, SameNameSameHandle) {
  MetricsRegistry reg;
  ShardedCounter* a = reg.counter("x");
  ShardedCounter* b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.counter("y"));
}

TEST(Counter, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  ShardedCounter* a = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  ShardedCounter* b = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
  // Different label VALUES are distinct series.
  EXPECT_NE(a, reg.counter("x", {{"a", "1"}, {"b", "3"}}));
  // Labeled and unlabeled are distinct series.
  EXPECT_NE(a, reg.counter("x"));
}

TEST(Gauge, SetOverwrites) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("test.gauge");
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  g->set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->set(-1.0);  // set overwrites, not accumulates
  EXPECT_DOUBLE_EQ(g->value(), -1.0);
}

TEST(Registry, DisableTurnsRecordsIntoNoOps) {
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  ShardedHdrHistogram* h = reg.histogram("h");
  c->inc();
  g->set(1.0);
  h->record(5.0);

  reg.set_enabled(false);
  c->inc(100);
  g->set(99.0);
  h->record(50.0);
  EXPECT_EQ(c->value(), 1u);
  EXPECT_DOUBLE_EQ(g->value(), 1.0);
  EXPECT_EQ(h->merged().count(), 1u);

  reg.set_enabled(true);
  c->inc();
  EXPECT_EQ(c->value(), 2u);
}

TEST(Histogram, MomentsAndExtremes) {
  MetricsRegistry reg;
  ShardedHdrHistogram* h = reg.histogram("h");
  EXPECT_EQ(h->merged().count(), 0u);
  EXPECT_DOUBLE_EQ(h->merged().min(), 0.0);  // empty histogram reads as 0
  for (double v : {5.0, 15.0, 25.0, 1.0}) h->record(v);
  const HdrHistogram m = h->merged();
  EXPECT_EQ(m.count(), 4u);
  // Extrema are exact; sum and mean come from bucket midpoints.
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 25.0);
  EXPECT_NEAR(m.sum(), 46.0, 46.0 * kHdrRelError);
  EXPECT_NEAR(m.mean(), 11.5, 11.5 * kHdrRelError);
}

TEST(Histogram, MergeEqualsRecordingEachSample) {
  // A writer that aggregates locally and publishes once must leave the
  // series exactly where recording every sample would.
  MetricsRegistry reg;
  ShardedHdrHistogram* per_sample = reg.histogram("a");
  ShardedHdrHistogram* published = reg.histogram("b");
  HdrHistogram local;
  for (double v : {0.25, 3.0, 3.0, 47.5, 1e4}) {
    per_sample->record(v);
    local.record(v);
  }
  published->merge(local);
  EXPECT_EQ(published->merged(), per_sample->merged());

  reg.set_enabled(false);
  published->merge(local);
  EXPECT_EQ(published->merged(), per_sample->merged());
  reg.set_enabled(true);

  EXPECT_THROW(published->merge(HdrHistogram(HdrHistogramOptions{
                   .min_magnitude = 1.0, .max_magnitude = 16.0})),
               std::invalid_argument);
}

TEST(Histogram, BucketPlacementIncludesOverflow) {
  // Magnitudes at or above max_magnitude clamp into the top bucket: the
  // count stays exact and max() keeps the true value.
  MetricsRegistry reg;
  ShardedHdrHistogram* h = reg.histogram(
      "h", HdrHistogramOptions{.min_magnitude = 1.0, .max_magnitude = 16.0});
  for (double v : {0.5, 1.0, 5.0, 100.0}) h->record(v);
  const HdrHistogram m = h->merged();
  const auto buckets = m.buckets();
  ASSERT_EQ(buckets.size(), 4u);  // zero bucket, 1, 5, clamped top
  EXPECT_DOUBLE_EQ(buckets[0].first, 1.0);  // zero bucket bound
  EXPECT_LE(buckets[3].first, 16.0);
  for (const auto& [bound, count] : buckets) EXPECT_EQ(count, 1u);
  EXPECT_DOUBLE_EQ(m.max(), 100.0);
}

TEST(Registry, SnapshotCarriesEveryKind) {
  MetricsRegistry reg;
  reg.counter("b.counter", {{"dir", "up"}})->inc(3);
  reg.gauge("a.gauge")->set(1.5);
  ShardedHdrHistogram* h = reg.histogram("c.hist");
  h->record(4.0);
  h->record(40.0);

  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  // Sorted by name.
  EXPECT_EQ(snaps[0].name, "a.gauge");
  EXPECT_EQ(snaps[1].name, "b.counter");
  EXPECT_EQ(snaps[2].name, "c.hist");

  EXPECT_EQ(snaps[0].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(snaps[0].value, 1.5);

  EXPECT_EQ(snaps[1].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snaps[1].value, 3.0);
  ASSERT_EQ(snaps[1].labels.size(), 1u);
  EXPECT_EQ(snaps[1].labels[0].first, "dir");

  EXPECT_EQ(snaps[2].kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(snaps[2].count, 2u);
  EXPECT_NEAR(snaps[2].sum, 44.0, 44.0 * kHdrRelError);
  EXPECT_DOUBLE_EQ(snaps[2].min, 4.0);
  EXPECT_DOUBLE_EQ(snaps[2].max, 40.0);
  // Two non-empty buckets, then the empty +inf tail the schema expects.
  ASSERT_EQ(snaps[2].buckets.size(), 3u);
  EXPECT_EQ(snaps[2].buckets[0].second, 1u);
  EXPECT_EQ(snaps[2].buckets[1].second, 1u);
  EXPECT_TRUE(std::isinf(snaps[2].buckets[2].first));
  EXPECT_EQ(snaps[2].buckets[2].second, 0u);
}

TEST(ShardedCounter, ExactUnderConcurrencyAnyThreadCount) {
  // The tentpole claim: per-thread cells merged at read are EXACT (no
  // lost updates) and the merged value is identical for every worker
  // partition of the same work.
  constexpr std::uint64_t kTotal = 64 * 1000;
  std::vector<std::uint64_t> merged;
  for (std::size_t threads : {1u, 4u, 16u}) {
    MetricsRegistry reg;
    ShardedCounter* c = reg.counter("sc");
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        const std::uint64_t n = kTotal / threads;
        for (std::uint64_t i = 0; i < n; ++i) c->inc();
        // Uneven remainder lands on worker 0.
        if (w == 0) c->inc(kTotal % threads);
      });
    }
    for (auto& t : pool) t.join();
    merged.push_back(c->value());
  }
  for (std::uint64_t v : merged) EXPECT_EQ(v, kTotal);
}

TEST(ShardedMetrics, DisabledRegistryGatesWrites) {
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("sc");
  c->inc(5);
  reg.set_enabled(false);
  c->inc(100);
  EXPECT_EQ(c->value(), 5u);
  reg.set_enabled(true);
  c->inc();
  EXPECT_EQ(c->value(), 6u);
}

TEST(ShardedMetrics, SnapshotExportsAsPlainKinds) {
  // Consumers (report writer, mntp-inspect) must not care that a counter
  // is sharded: cells written on several threads snapshot as one plain
  // counter value.
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("a.sharded", {{"dir", "up"}});
  c->inc(3);
  std::thread([c] { c->inc(4); }).join();
  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "a.sharded");
  EXPECT_EQ(snaps[0].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snaps[0].value, 7.0);
  ASSERT_EQ(snaps[0].labels.size(), 1u);
}

TEST(ShardedMetrics, SameNameSameHandleAndLateRegistrationGrows) {
  MetricsRegistry reg;
  ShardedCounter* a = reg.counter("x");
  EXPECT_EQ(a, reg.counter("x"));
  a->inc(3);  // this thread's slab now exists with one counter cell
  // A handle registered AFTER the slab was built must still write
  // correctly (the slab grows on first touch).
  ShardedCounter* b = reg.counter("y");
  b->inc(9);
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 9u);
}

TEST(Registry, SnapshotSplitsLabelSeries) {
  MetricsRegistry reg;
  reg.counter("tx", {{"dir", "up"}})->inc(1);
  reg.counter("tx", {{"dir", "down"}})->inc(2);
  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  // Same name, label-sorted: "down" < "up".
  EXPECT_EQ(snaps[0].labels[0].second, "down");
  EXPECT_DOUBLE_EQ(snaps[0].value, 2.0);
  EXPECT_EQ(snaps[1].labels[0].second, "up");
  EXPECT_DOUBLE_EQ(snaps[1].value, 1.0);
}

}  // namespace
}  // namespace mntp::obs
