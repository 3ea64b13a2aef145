#include "sim/simulation.h"

#include "obs/metric_names.h"
#include "obs/profiler.h"

namespace mntp::sim {

Simulation::Simulation()
    : telemetry_(&obs::Telemetry::global()),
      dispatched_counter_(telemetry_->metrics().counter(
          obs::metric_names::kSimEventsDispatched)),
      queue_depth_(telemetry_->metrics().histogram(
          obs::metric_names::kSimQueueDepth)),
      timeline_(&telemetry_->timeseries()),
      // The capture decision is taken here, on the constructing thread: a
      // replicate worker under a SuppressScope binds an inert sampler even
      // though the recorder itself is enabled.
      timeline_capturing_(timeline_->capturing()) {
  if (timeline_capturing_) {
    queue_depth_probe_ = timeline_->probe(
        obs::metric_names::kTsSimQueueDepth, {},
        [this](core::TimePoint) -> std::optional<double> {
          return static_cast<double>(queue_.size());
        });
  }
}

void Simulation::arm_sampler(core::TimePoint deadline) {
  if (!timeline_capturing_) return;
  sampler_deadline_ = deadline;
  if (sampler_event_.pending()) return;  // extend the deadline only
  if (next_sample_ < now_) next_sample_ = now_;
  schedule_next_sample();
}

void Simulation::schedule_next_sample() {
  if (next_sample_ > sampler_deadline_) return;
  sampler_event_ = queue_.schedule(next_sample_, [this] {
    timeline_->sample(now_);
    next_sample_ = now_ + timeline_->cadence();
    schedule_next_sample();
  });
}

void Simulation::dispatch_next() {
  now_ = queue_.next_time();
  // Sample queue depth every 64th dispatch: depth histograms want shape,
  // not per-event resolution, and the dispatch loop is the hottest path
  // in the simulator.
  if ((executed_ & 63u) == 0) {
    queue_depth_->record(static_cast<double>(queue_.size()));
  }
  queue_.run_next();
  ++executed_;
}

void Simulation::run_until(core::TimePoint deadline) {
  obs::ProfileScope profile(obs::spans::kSimRunUntil);
  arm_sampler(deadline);
  // The dispatch count is batched into one counter update per run call:
  // per-event increments are measurable on the churn bench, and nothing
  // observes the counter mid-run (the loop never yields).
  const std::uint64_t before = executed_;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    dispatch_next();
  }
  dispatched_counter_->inc(executed_ - before);
  if (deadline > now_) now_ = deadline;
}

void Simulation::run() {
  obs::ProfileScope profile(obs::spans::kSimRun);
  const std::uint64_t before = executed_;
  while (!queue_.empty()) {
    dispatch_next();
  }
  dispatched_counter_->inc(executed_ - before);
}

void PeriodicProcess::start(core::Duration initial_delay) {
  stop();
  running_ = true;
  pending_ = sim_.after(initial_delay, [this] { fire(); });
}

void PeriodicProcess::stop() {
  pending_.cancel();
  running_ = false;
}

void PeriodicProcess::fire() {
  // Reschedule before running the action so the action can observe a
  // consistent "running" state and may call stop() to break the chain.
  pending_ = sim_.after(interval_, [this] { fire(); });
  action_();
}

}  // namespace mntp::sim
