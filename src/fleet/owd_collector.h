// Per-(speaker, population) and per-provider-category OWD aggregation.
//
// One store: per-slot local HdrHistograms — one slot per server, written
// only by that server's Phase-B task (disjoint, no synchronization) —
// merged in fixed slot order into a Summary after the run joins.
//
// The Summary is what FleetResult carries: it reflects exactly one run
// and supports exact equality, which is what the determinism tests
// compare across thread and shard counts. merged() also publishes it,
// once, into the obs registry — fleet.owd_ms{speaker,population} and
// fleet.category_owd_ms{category} obs::ShardedHdrHistograms plus the
// fleet.owd.invalid counter — so the fleet's distributions land in run
// reports next to every other layer's metrics (the registry accumulates
// across a process's runs). HdrHistogram::merge is commutative and
// associative bit for bit, so publishing the merged Summary leaves the
// registry exactly where recording every sample into it would, and the
// fixed-order merge equals any other order — the order is fixed anyway
// to make that property irrelevant rather than load-bearing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/params.h"
#include "logs/spec.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"

namespace mntp::fleet {

class OwdCollector {
 public:
  /// Binds registry handles from the current global obs context and
  /// sizes one local slot per writer (= per server). The validity
  /// window is the §3.1 filter: measured OWDs outside it count as
  /// invalid and enter no histogram.
  OwdCollector(std::size_t slots, double valid_min_ms, double valid_max_ms);

  /// Record one measured OWD from writer `slot`. Thread-safe across
  /// DISTINCT slots only (by design: one Phase-B task per server).
  void record(std::size_t slot, Speaker speaker, Population population,
              logs::ProviderCategory category, double owd_ms);

  struct Summary {
    /// Empty histograms in the shared fleet OWD layout.
    Summary();

    /// [speaker][population], indexed by the enum values.
    std::array<std::array<obs::HdrHistogram, 2>, 2> by_class;
    /// Indexed by logs::ProviderCategory.
    std::array<obs::HdrHistogram, 4> by_category;
    std::uint64_t valid = 0;
    std::uint64_t invalid = 0;

    [[nodiscard]] bool operator==(const Summary&) const = default;
  };

  /// Merge every slot (fixed slot order) into one Summary and add it to
  /// the registry series. Call once, after the writers have joined.
  [[nodiscard]] Summary merged();

 private:
  double valid_min_ms_;
  double valid_max_ms_;
  std::vector<Summary> slots_;
  // Registry handles, written once by merged().
  std::array<std::array<obs::ShardedHdrHistogram*, 2>, 2> reg_class_{};
  std::array<obs::ShardedHdrHistogram*, 4> reg_category_{};
  obs::ShardedCounter* reg_invalid_ = nullptr;
};

}  // namespace mntp::fleet
