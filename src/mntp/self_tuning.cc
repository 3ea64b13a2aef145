#include "mntp/self_tuning.h"

#include <algorithm>

namespace mntp::protocol {

SelfTuner::SelfTuner(sim::Simulation& sim, MntpClient& client,
                     SelfTunerParams params)
    : sim_(sim),
      client_(client),
      params_(params),
      process_(sim, params.adapt_interval, [this] { adapt(); }) {}

void SelfTuner::start() {
  // The band bounds the wait from the start, not only once an
  // adaptation happens to move it.
  const core::Duration wait = current_wait();
  const core::Duration clamped =
      std::clamp(wait, params_.min_regular_wait, params_.max_regular_wait);
  if (clamped != wait) client_.mutable_engine().set_regular_wait_time(clamped);
  process_.start(params_.adapt_interval);
}
core::Duration SelfTuner::current_wait() const {
  return client_.engine().params().regular_wait_time;
}

void SelfTuner::adapt() {
  // Only the rounds since the last adaptation vote: each judged round
  // adds one to exactly one outcome tally.
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
    const auto outcome = static_cast<SampleOutcome>(i);
    const std::size_t total = client_.engine().outcome_count(outcome);
    const bool ok = outcome == SampleOutcome::kAcceptedWarmup ||
                    outcome == SampleOutcome::kAcceptedRegular;
    (ok ? accepted : rejected) += total - seen_outcomes_[i];
    seen_outcomes_[i] = total;
  }
  const std::size_t n = accepted + rejected;
  if (n < params_.min_observations) return;

  const double reject_rate =
      static_cast<double>(rejected) / static_cast<double>(n);
  const core::Duration wait = current_wait();
  MntpEngine& engine = client_.mutable_engine();
  if (reject_rate > params_.reject_rate_high) {
    // Trend going stale / channel rough: sample more often.
    const auto faster = std::max(params_.min_regular_wait,
                                 wait.scaled(1.0 / params_.step_factor));
    if (faster < wait) {
      engine.set_regular_wait_time(faster);
      ++speedups_;
    }
  } else if (reject_rate < params_.reject_rate_low) {
    // Stable: save requests.
    const auto slower =
        std::min(params_.max_regular_wait, wait.scaled(params_.step_factor));
    if (slower > wait) {
      engine.set_regular_wait_time(slower);
      ++backoffs_;
    }
  }
}

}  // namespace mntp::protocol
