// Mergeable log-linear histogram ("HDR-style"): the registry's one
// histogram primitive.
//
// Distributions here must aggregate exactly across independent recorders
// — sim::ReplicationRunner replicates, thread-pool shards, fleet shards
// (the server's-eye OWD distributions of TimeWeaver and the paper's §3.1
// measurement study are exactly such aggregates). A streaming quantile
// estimator such as P² is order-sensitive and cannot be merged, so
// HdrHistogram buckets values on a log-linear grid instead: the magnitude
// axis is split into octaves (powers of two above `min_magnitude`), each
// octave into 2^sub_bucket_bits equal-width linear sub-buckets. Bucket
// counts are exact integers, so
//
//   * relative error of any reconstructed quantile is bounded by half a
//     sub-bucket width: <= 1 / 2^(sub_bucket_bits + 1) (~1.6% at the
//     default 5 bits);
//   * merge() is elementwise integer addition plus min/max — fully
//     commutative AND associative, bit for bit. Merging any permutation
//     of any partition of a sample stream yields an identical histogram
//     (asserted by tests). To keep that property there is deliberately
//     NO floating-point sum accumulator: mean() is derived from bucket
//     midpoints (deterministic, bounded error), not from an
//     order-sensitive IEEE summation.
//
// Negative values land in a mirrored bucket array; values with magnitude
// below `min_magnitude` land in a dedicated zero bucket; magnitudes at or
// above `max_magnitude` clamp into the top bucket (count exact, value
// error unbounded there — min()/max() stay exact regardless). NaN is
// counted separately and never pollutes min/max.
//
// HdrHistogram itself is a plain value type with no locking — copyable,
// movable, comparable. ShardedHdrHistogram wraps it for the registry hot
// path: record() writes to a per-thread shard resolved through a
// thread-local cache (no mutex after first touch per thread), and
// merged() combines the shards. Because merge order is irrelevant, the
// merged result is identical for every thread count and scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mntp::obs {

struct HdrHistogramOptions {
  /// Magnitudes below this are "zero" (dedicated bucket). Must be > 0.
  double min_magnitude = 1e-3;
  /// Magnitudes at or above this clamp into the top bucket. Must exceed
  /// min_magnitude.
  double max_magnitude = 1e9;
  /// Sub-buckets per octave = 2^sub_bucket_bits; relative quantile error
  /// is bounded by 2^-(sub_bucket_bits+1). Range [1, 12].
  unsigned sub_bucket_bits = 5;

  [[nodiscard]] bool operator==(const HdrHistogramOptions&) const = default;
};

class HdrHistogram {
 public:
  explicit HdrHistogram(HdrHistogramOptions options = {});

  void record(double v, std::uint64_t n = 1);

  /// Elementwise-add `other` into this. Throws std::invalid_argument when
  /// the layouts (options) differ. Commutative and associative bit for
  /// bit — see file comment.
  void merge(const HdrHistogram& other);

  /// Recorded finite samples (NaN excluded; see nan_count()).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t nan_count() const { return nan_count_; }
  /// Exact extrema of the recorded finite samples; 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Sum/mean reconstructed from bucket midpoints: deterministic under
  /// merge reordering, relative error bounded like the quantiles.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Quantile reconstructed from bucket midpoints, clamped to the exact
  /// [min, max]. q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const HdrHistogramOptions& options() const { return options_; }
  [[nodiscard]] bool same_layout(const HdrHistogram& other) const {
    return options_ == other.options_;
  }

  /// Non-empty buckets in ascending value order (negatives, then the
  /// zero bucket, then positives), as (inclusive upper bound, count).
  /// The bound of the zero bucket is +min_magnitude.
  [[nodiscard]] std::vector<std::pair<double, std::uint64_t>> buckets() const;

  /// Exact state equality (layout, every bucket count, extrema). Two
  /// histograms built from the same multiset of samples — in any order,
  /// merged along any tree — compare equal.
  [[nodiscard]] bool operator==(const HdrHistogram& other) const;

 private:
  [[nodiscard]] std::size_t bucket_index(double magnitude) const;
  /// Midpoint value represented by positive-side bucket i.
  [[nodiscard]] double bucket_mid(std::size_t i) const;
  /// Inclusive upper bound of positive-side bucket i.
  [[nodiscard]] double bucket_upper(std::size_t i) const;

  HdrHistogramOptions options_;
  std::size_t sub_buckets_ = 0;  // 2^sub_bucket_bits
  std::size_t octaves_ = 0;
  std::vector<std::uint64_t> positive_;
  std::vector<std::uint64_t> negative_;
  std::uint64_t zero_ = 0;  // |v| < min_magnitude
  std::uint64_t count_ = 0;
  std::uint64_t nan_count_ = 0;
  double min_ = 0.0;  // valid iff count_ > 0
  double max_ = 0.0;
};

/// One T per recording thread, resolved through a thread-local cache —
/// the per-thread shard idiom behind ShardedHdrHistogram and the
/// registry's counter slabs (MetricShardSlabs, obs/metrics.h). A lookup
/// is one linear scan of this thread's cache — a thread touches one
/// registry's slabs and a handful of histograms, so the common case hits
/// on the first compare — keyed by {instance address, instance id}: the
/// id tells this instance apart from a destroyed one that reused its
/// address, so a stale entry never resolves. A thread's first lookup
/// creates its shard under the lock.
template <typename T>
class PerThreadShards {
 public:
  PerThreadShards() {
    static std::atomic<std::uint64_t> next_id{1};
    instance_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  }

  /// This thread's shard; on this thread's first call `make()` builds it
  /// under mutex().
  template <typename Make>
  T& local(Make&& make) {
    std::vector<CacheEntry>& cache = this_thread_cache();
    for (const CacheEntry& e : cache) {
      if (e.owner == this && e.instance_id == instance_id_) return *e.shard;
    }
    // Miss — drop any entry for a destroyed instance that shared this
    // address, then create this thread's shard under the lock.
    std::erase_if(cache,
                  [this](const CacheEntry& e) { return e.owner == this; });
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<T>(make()));
    cache.push_back({this, instance_id_, shards_.back().get()});
    return *shards_.back();
  }

  /// Visit every thread's shard under mutex() (merged reads).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) fn(*shard);
  }

  /// Guards shard creation and for_each; owners guard the state their
  /// `make` reads with it too.
  [[nodiscard]] std::mutex& mutex() const { return mutex_; }

 private:
  struct CacheEntry {
    const PerThreadShards* owner;
    std::uint64_t instance_id;
    T* shard;
  };
  // One cache per T, whichever `Make` local() is instantiated with.
  static std::vector<CacheEntry>& this_thread_cache() {
    thread_local std::vector<CacheEntry> cache;
    return cache;
  }

  std::uint64_t instance_id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<T>> shards_;
};

/// Registry-facing wrapper: per-thread HdrHistogram shards so the record
/// hot path takes no lock (after the first record on each thread), merged
/// on demand. Handles are created by MetricsRegistry::histogram() and
/// stay valid for the registry's lifetime.
class ShardedHdrHistogram {
 public:
  /// Record into this thread's shard. Lock-free after the shard exists
  /// (one mutex acquisition per thread per histogram, at first record).
  void record(double v);
  /// Merge a whole histogram into this thread's shard, for a writer that
  /// aggregates locally and publishes once. Throws std::invalid_argument
  /// when the layouts differ (HdrHistogram::merge).
  void merge(const HdrHistogram& h);

  /// Merge every shard into one histogram. Identical result for every
  /// thread count / interleaving (merge is order-insensitive). Call after
  /// parallel sections have joined (core::ThreadPool::parallel_for joins
  /// before returning): shard writes are not synchronized with this read,
  /// the same rule Telemetry documents for sink reconfiguration.
  [[nodiscard]] HdrHistogram merged() const;

  [[nodiscard]] const HdrHistogramOptions& options() const {
    return options_;
  }

 private:
  friend class MetricsRegistry;
  ShardedHdrHistogram(HdrHistogramOptions options,
                      const std::atomic<bool>* enabled);
  HdrHistogram* shard_for_this_thread();

  HdrHistogramOptions options_;
  const std::atomic<bool>* enabled_;
  PerThreadShards<HdrHistogram> shards_;
};

}  // namespace mntp::obs
