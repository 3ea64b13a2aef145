#include "obs/metrics.h"

#include <algorithm>
#include <limits>

namespace mntp::obs {

// --- MetricShardSlabs -----------------------------------------------------

MetricShardSlabs::Slab& MetricShardSlabs::slab_for_this_thread() {
  return shards_.local([this] { return Slab(counter_count_, 0); });
}

void MetricShardSlabs::grow(Slab& slab) {
  std::lock_guard<std::mutex> lock(shards_.mutex());
  slab.resize(counter_count_, 0);
}

std::uint64_t MetricShardSlabs::merged_counter(std::size_t index) const {
  std::uint64_t total = 0;
  shards_.for_each([&](const Slab& slab) {
    if (index < slab.size()) total += slab[index];
  });
  return total;
}

std::size_t MetricShardSlabs::allocate_counter() {
  std::lock_guard<std::mutex> lock(shards_.mutex());
  return counter_count_++;
}

// --- MetricsRegistry ------------------------------------------------------

Labels MetricsRegistry::normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

namespace {

/// Find-or-create under the caller's registry lock; `make` runs only on a
/// miss.
template <typename Map, typename Key, typename Make>
auto* find_or_create(Map& map, Key key, Make make) {
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(std::move(key), make()).first;
  return it->second.get();
}

}  // namespace

ShardedCounter* MetricsRegistry::counter(std::string_view name,
                                         Labels labels) {
  Key key{std::string(name), normalize(std::move(labels))};
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(counters_, std::move(key), [this] {
    return std::unique_ptr<ShardedCounter>(
        new ShardedCounter(&enabled_, &slabs_, slabs_.allocate_counter()));
  });
}

Gauge* MetricsRegistry::gauge(std::string_view name, Labels labels) {
  Key key{std::string(name), normalize(std::move(labels))};
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(gauges_, std::move(key), [this] {
    return std::unique_ptr<Gauge>(new Gauge(&enabled_));
  });
}

ShardedHdrHistogram* MetricsRegistry::histogram(std::string_view name,
                                                HdrHistogramOptions options,
                                                Labels labels) {
  Key key{std::string(name), normalize(std::move(labels))};
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(histograms_, std::move(key), [&] {
    return std::unique_ptr<ShardedHdrHistogram>(
        new ShardedHdrHistogram(options, &enabled_));
  });
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  // Counters and histograms merge their per-thread shards here, at
  // snapshot time; both merges are order-insensitive, so the result is
  // identical for every thread count.
  for (const auto& [key, c] : counters_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.name = key.name;
    s.labels = key.labels;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.name = key.name;
    s.labels = key.labels;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    // Exported in the histogram shape the report schema expects:
    // non-empty buckets ascending, then the +inf bucket.
    const HdrHistogram merged = h->merged();
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.name = key.name;
    s.labels = key.labels;
    s.count = merged.count();
    s.sum = merged.sum();
    s.min = merged.min();
    s.max = merged.max();
    s.p50 = merged.quantile(0.50);
    s.p90 = merged.quantile(0.90);
    s.p99 = merged.quantile(0.99);
    s.buckets = merged.buckets();
    s.buckets.emplace_back(std::numeric_limits<double>::infinity(), 0);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace mntp::obs
