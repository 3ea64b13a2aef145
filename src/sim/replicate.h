// Deterministic multi-seed replication: run K independent replicates of
// a scenario in parallel and aggregate their metrics.
//
// The paper's methodology (§5) scores parameter choices over many
// trace/seed combinations; the figure benches likewise gain statistical
// weight from replicating one scenario across independent channel/clock
// realizations. Replicates are embarrassingly parallel — each one is a
// pure function of its seed — so they fan out across the existing
// core::ThreadPool with the same determinism contract as the tuner's
// grid search:
//
//   * Per-replicate seeds are derived, not drawn: replicate 0 runs the
//     scenario's base seed unchanged (so `--replicates 1` IS the
//     single-run experiment, bit for bit), and replicate r > 0 gets
//     `core::splitmix64(base_seed + (r-1) * golden_gamma)` — the
//     splitmix64 stream seeded at base_seed, read out at index r-1.
//     Adding replicates never perturbs earlier ones.
//   * Each worker writes only its own replicate's pre-sized result slot,
//     so the report is bit-identical for every `threads` value,
//     including the inline `threads <= 1` path (no pool is created).
//
// Scenarios run full simulations, so the only shared state they may
// touch is the thread-safe obs layer (sharded metrics, mutexed sinks) —
// the same rule core::ThreadPool documents for all offline parallelism.
// The runner owns the per-replicate obs rules, so scenarios carry none:
// only replicate 0 records the sim-time timeline (every other replicate
// runs under a TimeSeriesRecorder::SuppressScope), and each replicate
// runs under a QueryTracer::ReplicateScope, so the trace-sampling gate
// keeps the same queries at every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "obs/hdr_histogram.h"

namespace mntp::sim {

/// Seed for replicate `replicate` of a scenario whose base seed is
/// `base_seed`. Identity at replicate 0; splitmix64 stream otherwise.
[[nodiscard]] std::uint64_t replicate_seed(std::uint64_t base_seed,
                                           std::size_t replicate);

/// One scenario metric observed in a single replicate.
struct MetricValue {
  std::string name;
  double value = 0.0;
};

/// One whole distribution observed in a single replicate (e.g. every
/// per-poll offset). obs::HdrHistogram because these are merged across
/// replicates.
struct DistributionValue {
  std::string name;
  obs::HdrHistogram histogram;
};

/// Everything one replicate reports: scalar metrics plus distributions.
struct ReplicateResult {
  std::vector<MetricValue> metrics;
  std::vector<DistributionValue> distributions;
};

/// A distribution merged across all replicates. Because
/// HdrHistogram::merge is order-insensitive bit for bit, `merged` is
/// identical for every --threads value.
struct MergedDistribution {
  std::string name;
  obs::HdrHistogram merged;
};

/// A metric aggregated across all replicates.
struct ReplicatedMetric {
  std::string name;
  /// Value per replicate, indexed by replicate number.
  std::vector<double> per_replicate;
  /// Summary statistics over per_replicate.
  core::Summary summary;
};

struct ReplicateReport {
  std::uint64_t base_seed = 0;
  std::size_t replicates = 0;
  std::vector<ReplicatedMetric> metrics;
  /// Cross-replicate merged distributions; empty unless the scenario
  /// reports distributions (the rich-scenario overload of run()).
  std::vector<MergedDistribution> distributions;

  /// Metric by name; nullptr when absent.
  [[nodiscard]] const ReplicatedMetric* find(std::string_view name) const;
  /// Median across replicates of metric `name`; `fallback` when absent.
  [[nodiscard]] double median(std::string_view name,
                              double fallback = 0.0) const;
};

class ReplicationRunner {
 public:
  struct Options {
    std::size_t replicates = 1;
    /// Worker threads; <= 1 runs every replicate inline on the caller
    /// (the exact serial path — no pool is constructed).
    std::size_t threads = 1;
  };

  /// A scenario is a pure function of (seed, replicate_index) returning
  /// its observed metrics. Every replicate must return the same metric
  /// names in the same order; the runner throws std::runtime_error on a
  /// mismatch (a scenario whose metric set depends on the seed cannot be
  /// aggregated).
  using Scenario = std::function<std::vector<MetricValue>(
      std::uint64_t seed, std::size_t replicate)>;

  /// Scenario variant that also reports whole distributions, merged
  /// across replicates in the report. Every replicate must report the
  /// same distribution names in the same order, with identical
  /// HdrHistogram layouts (merge() throws otherwise).
  using RichScenario = std::function<ReplicateResult(std::uint64_t seed,
                                                     std::size_t replicate)>;

  explicit ReplicationRunner(Options options) : options_(options) {}

  /// Run all replicates (parallel per options_.threads) and aggregate.
  /// The report is bit-identical for every thread count.
  [[nodiscard]] ReplicateReport run(std::uint64_t base_seed,
                                    const Scenario& scenario) const;
  [[nodiscard]] ReplicateReport run(std::uint64_t base_seed,
                                    const RichScenario& scenario) const;

 private:
  Options options_;
};

}  // namespace mntp::sim
