#include "sim/replicate.h"

#include <stdexcept>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/query_trace.h"
#include "obs/timeseries.h"

namespace mntp::sim {

std::uint64_t replicate_seed(std::uint64_t base_seed, std::size_t replicate) {
  if (replicate == 0) return base_seed;
  // The splitmix64 stream seeded at base_seed, skipped ahead to index
  // `replicate`: state_r = base + r * gamma, output = mix(state_r).
  // Index 0 is intentionally NOT mixed — it is the base seed itself, so
  // one replicate reproduces the original single-seed experiment.
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
  return core::splitmix64(base_seed +
                          (static_cast<std::uint64_t>(replicate) - 1) * kGamma);
}

const ReplicatedMetric* ReplicateReport::find(std::string_view name) const {
  for (const ReplicatedMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double ReplicateReport::median(std::string_view name, double fallback) const {
  const ReplicatedMetric* m = find(name);
  return m != nullptr ? m->summary.median : fallback;
}

ReplicateReport ReplicationRunner::run(std::uint64_t base_seed,
                                       const Scenario& scenario) const {
  return run(base_seed,
             RichScenario([&scenario](std::uint64_t seed, std::size_t r) {
               return ReplicateResult{.metrics = scenario(seed, r),
                                      .distributions = {}};
             }));
}

ReplicateReport ReplicationRunner::run(std::uint64_t base_seed,
                                       const RichScenario& scenario) const {
  const std::size_t k = options_.replicates == 0 ? 1 : options_.replicates;
  // Deterministic result placement: slot r belongs to replicate r, so
  // the aggregation below sees the same values in the same order no
  // matter which worker ran which replicate.
  std::vector<ReplicateResult> per_replicate(k);
  const auto run_one = [&](std::size_t r) {
    // The per-replicate obs rules (see replicate.h).
    obs::TimeSeriesRecorder::SuppressScope suppress(r != 0);
    obs::QueryTracer::ReplicateScope trace_keys(r);
    per_replicate[r] = scenario(replicate_seed(base_seed, r), r);
  };
  if (options_.threads <= 1 || k == 1) {
    for (std::size_t r = 0; r < k; ++r) run_one(r);
  } else {
    core::ThreadPool pool(options_.threads);
    pool.parallel_for(0, k, run_one);
  }

  ReplicateReport report;
  report.base_seed = base_seed;
  report.replicates = k;
  report.metrics.reserve(per_replicate[0].metrics.size());
  for (const MetricValue& mv : per_replicate[0].metrics) {
    ReplicatedMetric metric;
    metric.name = mv.name;
    metric.per_replicate.reserve(k);
    report.metrics.push_back(std::move(metric));
  }
  for (std::size_t r = 0; r < k; ++r) {
    if (per_replicate[r].metrics.size() != report.metrics.size()) {
      throw std::runtime_error("ReplicationRunner: replicate " +
                               std::to_string(r) +
                               " returned a different metric count");
    }
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      if (per_replicate[r].metrics[i].name != report.metrics[i].name) {
        throw std::runtime_error(
            "ReplicationRunner: replicate " + std::to_string(r) + " metric " +
            std::to_string(i) + " is named '" +
            per_replicate[r].metrics[i].name + "', expected '" +
            report.metrics[i].name + "'");
      }
      report.metrics[i].per_replicate.push_back(
          per_replicate[r].metrics[i].value);
    }
  }
  for (ReplicatedMetric& m : report.metrics) {
    m.summary = core::summarize(m.per_replicate);
  }

  // Merge distributions replicate by replicate. The merge order is fixed
  // (slot order), but HdrHistogram::merge is order-insensitive anyway, so
  // the result is bit-identical for every thread count.
  report.distributions.reserve(per_replicate[0].distributions.size());
  for (const DistributionValue& dv : per_replicate[0].distributions) {
    report.distributions.push_back(MergedDistribution{
        .name = dv.name, .merged = obs::HdrHistogram(dv.histogram.options())});
  }
  for (std::size_t r = 0; r < k; ++r) {
    if (per_replicate[r].distributions.size() != report.distributions.size()) {
      throw std::runtime_error("ReplicationRunner: replicate " +
                               std::to_string(r) +
                               " returned a different distribution count");
    }
    for (std::size_t i = 0; i < report.distributions.size(); ++i) {
      if (per_replicate[r].distributions[i].name !=
          report.distributions[i].name) {
        throw std::runtime_error(
            "ReplicationRunner: replicate " + std::to_string(r) +
            " distribution " + std::to_string(i) + " is named '" +
            per_replicate[r].distributions[i].name + "', expected '" +
            report.distributions[i].name + "'");
      }
      report.distributions[i].merged.merge(
          per_replicate[r].distributions[i].histogram);
    }
  }
  return report;
}

}  // namespace mntp::sim
