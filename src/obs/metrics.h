// Metrics registry: counters, gauges and histograms keyed by name+labels.
//
// The registry is the quantitative half of the observability layer (the
// per-query trace in obs/query_trace.h is the qualitative half). Design
// constraints, in order:
//
//   1. Hot-path cheapness. Instrumented code resolves a handle
//      (ShardedCounter*, Gauge*, ShardedHdrHistogram*) ONCE at
//      construction; recording through the handle is O(1) with no map
//      lookup and no allocation. A disabled registry reduces every record
//      to one predictable branch.
//   2. Determinism. Metrics only observe; nothing in the library reads a
//      metric back to make a decision, so instrumentation can never
//      perturb an experiment's RNG streams or event order.
//   3. Self-description. The registry can snapshot itself into plain
//      structs that the report writer (obs/report.h) serializes without
//      knowing anything about individual metrics.
//
// One primitive per concept. Counters and histograms are per-thread
// shards merged at snapshot(): integer cell sums and HDR bucket sums are
// commutative and associative, so every snapshot is bit-identical for
// any thread count or scheduling once the writers have joined. The gauge
// is a set-only atomic (last writer wins). Handle *resolution* takes the
// registry mutex; recording through a resolved handle never does.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hdr_histogram.h"

namespace mntp::obs {

/// Metric labels: key/value pairs, e.g. {{"dir","up"}}. Stored sorted by
/// key so label order at the call site does not create distinct series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Last-written instantaneous value. Lock-free and set-only: concurrent
/// set() calls keep one serialization (last writer wins).
class Gauge {
 public:
  void set(double v) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

class MetricShardSlabs;

/// Monotonic event count. Each inc() writes this thread's slab cell (see
/// MetricShardSlabs): a plain uncontended store, no RMW, no cache line
/// shared between cores. value() sums the cells; integer addition is
/// commutative and associative, so the merged total is bit-identical for
/// any thread count and any scheduling — the same merge rule
/// ShardedHdrHistogram relies on. Reads are only exact after parallel sections have joined
/// (cell writes are not synchronized with the merge, the rule
/// obs/hdr_histogram.h documents for merged()).
class ShardedCounter {
 public:
  void inc(std::uint64_t n = 1);
  /// Sum over every thread's cell. Exact once writers have joined.
  [[nodiscard]] std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  ShardedCounter(const std::atomic<bool>* enabled, MetricShardSlabs* slabs,
                 std::size_t index)
      : enabled_(enabled), slabs_(slabs), index_(index) {}
  const std::atomic<bool>* enabled_;
  MetricShardSlabs* slabs_;
  std::size_t index_;
};

/// The per-thread slab backing every ShardedCounter of one registry. Each
/// thread that records gets ONE slab (a dense array of uint64 cells)
/// shared by all that registry's counters; a handle is just {slab set,
/// cell index}. The hot path resolves this thread's slab through a
/// thread-local cache (one owner/instance compare — the
/// ShardedHdrHistogram idiom, amortized O(1)), bounds-checks the cell and
/// does a plain `+=`: no atomics, no locks, no false sharing between
/// threads. Slab creation and growth (a handle registered after this
/// thread's slab was built) take the mutex; merged reads take it too and
/// sum cells.
class MetricShardSlabs {
 public:
  MetricShardSlabs();
  MetricShardSlabs(const MetricShardSlabs&) = delete;
  MetricShardSlabs& operator=(const MetricShardSlabs&) = delete;

  void counter_add(std::size_t index, std::uint64_t n) {
    Slab& s = slab_for_this_thread();
    if (index >= s.size()) grow(s);
    s[index] += n;
  }

  [[nodiscard]] std::uint64_t merged_counter(std::size_t index) const;

  /// Reserve the next cell index (registration path, rare).
  [[nodiscard]] std::size_t allocate_counter();

 private:
  using Slab = std::vector<std::uint64_t>;

  Slab& slab_for_this_thread();
  /// Resize the calling thread's slab to the registered cell count.
  /// Only the owning thread touches its cells, so the realloc cannot
  /// race the hot path; merged reads serialize on mutex_.
  void grow(Slab& slab);

  /// Distinguishes this instance from a destroyed one reusing the same
  /// address, so stale thread-local cache entries never resolve.
  std::uint64_t instance_id_;
  mutable std::mutex mutex_;
  std::size_t counter_count_ = 0;  // guarded by mutex_
  std::vector<std::unique_ptr<Slab>> slabs_;
};

inline void ShardedCounter::inc(std::uint64_t n) {
  if (enabled_->load(std::memory_order_relaxed)) {
    slabs_->counter_add(index_, n);
  }
}

inline std::uint64_t ShardedCounter::value() const {
  return slabs_->merged_counter(index_);
}

/// Point-in-time copy of one metric, for export (see obs/report.h).
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;

  double value = 0.0;  ///< counter (cast) or gauge value

  // Histogram-only payload.
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// (upper bound, count) per bucket; the final bound is +inf.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Returned pointers stay valid for the registry's
  /// lifetime; call once at setup and record through the handle.
  ShardedCounter* counter(std::string_view name, Labels labels = {});
  Gauge* gauge(std::string_view name, Labels labels = {});
  /// Mergeable log-linear histogram (see obs/hdr_histogram.h): exact
  /// bucket counts in per-thread shards, merged at snapshot().
  ShardedHdrHistogram* histogram(std::string_view name,
                                 HdrHistogramOptions options = {},
                                 Labels labels = {});

  /// Disable/enable all recording (handles stay valid; records become a
  /// single branch). Used to measure instrumentation overhead.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const;

  /// Snapshot every metric, ordered by (name, labels).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  static Labels normalize(Labels labels);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;  // guards the maps, not the metric values
  MetricShardSlabs slabs_;    // cells behind every counter
  std::map<Key, std::unique_ptr<ShardedCounter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<ShardedHdrHistogram>> histograms_;
};

}  // namespace mntp::obs
