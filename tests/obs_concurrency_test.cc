// Thread-safety of the obs layer under concurrent writers: exact counter
// totals, no lost histogram samples. These are
// the tests the TSan preset (README: -DMNTP_TSAN=ON) is aimed at.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace mntp::obs {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kPerThread = 20000;

TEST(ObsConcurrency, CounterHammerExactTotal) {
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("hammer.counter");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (std::size_t i = 0; i < kPerThread; ++i) c->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(ObsConcurrency, HistogramHammerExactCountAndSum) {
  MetricsRegistry reg;
  ShardedHdrHistogram* h = reg.histogram("hammer.hist");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h->record(static_cast<double>(t % 4) + 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // 8 threads record values 1,2,3,4 twice each; the merged shards equal
  // one histogram fed the same multiset on one thread, bit for bit.
  HdrHistogram expected;
  for (double v : {1.0, 2.0, 3.0, 4.0}) expected.record(v, 2 * kPerThread);
  const HdrHistogram merged = h->merged();
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_EQ(merged.sum(), expected.sum());
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 4.0);
}

TEST(ObsConcurrency, RegistryFindOrCreateFromManyThreads) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Everyone resolves the same series; the registry must hand all of
      // them one Counter and lose no increments during creation races.
      for (int i = 0; i < 500; ++i) reg.counter("shared.series")->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared.series")->value(), kThreads * 500u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsConcurrency, ParallelForWorkersShareOneCounter) {
  // The exact shape the parallel tuner search uses: pool workers bump one
  // counter while writing disjoint result slots.
  Telemetry tel;
  ScopedTelemetry scope(tel);
  ShardedCounter* scored = Telemetry::global().metrics().counter("t.scored");
  core::ThreadPool pool(4);
  std::vector<double> results(512);
  pool.parallel_for(0, results.size(), [&](std::size_t i) {
    results[i] = static_cast<double>(i);
    scored->inc();
  });
  EXPECT_EQ(scored->value(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], static_cast<double>(i));
  }
}

TEST(ObsConcurrency, DisabledRegistryIgnoresConcurrentWrites) {
  MetricsRegistry reg;
  ShardedCounter* c = reg.counter("off.counter");
  reg.set_enabled(false);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 1000; ++i) c->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), 0u);
}

}  // namespace
}  // namespace mntp::obs
