#include "fleet/owd_collector.h"

#include <string>

#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::fleet {

namespace {

// Shared layout for every fleet OWD histogram: measured OWDs live in
// [0, 3000] ms with ~10 us floor; 2^5 sub-buckets bound quantile error
// at ~1.6%. One constant so local slots and registry series always
// merge-compatibly.
obs::HdrHistogramOptions owd_hist_options() {
  return obs::HdrHistogramOptions{
      .min_magnitude = 0.01, .max_magnitude = 1e5, .sub_bucket_bits = 5};
}

constexpr std::array<Speaker, 2> kSpeakers{Speaker::kNtp, Speaker::kSntp};
constexpr std::array<Population, 2> kPopulations{Population::kWired,
                                                 Population::kWireless};
constexpr std::array<logs::ProviderCategory, 4> kCategories{
    logs::ProviderCategory::kCloud, logs::ProviderCategory::kIsp,
    logs::ProviderCategory::kBroadband, logs::ProviderCategory::kMobile};

}  // namespace

OwdCollector::Summary::Summary() {
  for (auto& row : by_class) {
    for (auto& h : row) h = obs::HdrHistogram(owd_hist_options());
  }
  for (auto& h : by_category) h = obs::HdrHistogram(owd_hist_options());
}

OwdCollector::OwdCollector(std::size_t slots, double valid_min_ms,
                           double valid_max_ms)
    : valid_min_ms_(valid_min_ms),
      valid_max_ms_(valid_max_ms),
      slots_(slots) {
  obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
  for (Speaker sp : kSpeakers) {
    for (Population pop : kPopulations) {
      reg_class_[static_cast<std::size_t>(sp)][static_cast<std::size_t>(pop)] =
          m.histogram(
              obs::metric_names::kFleetOwdMs, owd_hist_options(),
              obs::Labels{{"speaker", std::string(speaker_name(sp))},
                          {"population", std::string(population_name(pop))}});
    }
  }
  for (logs::ProviderCategory cat : kCategories) {
    reg_category_[static_cast<std::size_t>(cat)] = m.histogram(
        obs::metric_names::kFleetCategoryOwdMs, owd_hist_options(),
        obs::Labels{{"category", std::string(logs::category_name(cat))}});
  }
  reg_invalid_ = m.counter(obs::metric_names::kFleetOwdInvalid);
}

void OwdCollector::record(std::size_t slot, Speaker speaker,
                          Population population,
                          logs::ProviderCategory category, double owd_ms) {
  Summary& local = slots_[slot];
  if (owd_ms < valid_min_ms_ || owd_ms > valid_max_ms_) {
    ++local.invalid;
    return;
  }
  const auto sp = static_cast<std::size_t>(speaker);
  const auto pop = static_cast<std::size_t>(population);
  const auto cat = static_cast<std::size_t>(category);
  ++local.valid;
  local.by_class[sp][pop].record(owd_ms);
  local.by_category[cat].record(owd_ms);
}

OwdCollector::Summary OwdCollector::merged() {
  Summary out;
  for (const Summary& slot : slots_) {
    out.valid += slot.valid;
    out.invalid += slot.invalid;
    for (std::size_t sp = 0; sp < 2; ++sp) {
      for (std::size_t pop = 0; pop < 2; ++pop) {
        out.by_class[sp][pop].merge(slot.by_class[sp][pop]);
      }
    }
    for (std::size_t cat = 0; cat < 4; ++cat) {
      out.by_category[cat].merge(slot.by_category[cat]);
    }
  }
  for (std::size_t sp = 0; sp < 2; ++sp) {
    for (std::size_t pop = 0; pop < 2; ++pop) {
      reg_class_[sp][pop]->merge(out.by_class[sp][pop]);
    }
  }
  for (std::size_t cat = 0; cat < 4; ++cat) {
    reg_category_[cat]->merge(out.by_category[cat]);
  }
  reg_invalid_->inc(out.invalid);
  return out;
}

}  // namespace mntp::fleet
