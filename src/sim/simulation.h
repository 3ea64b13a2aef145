// Simulation kernel: owns the event queue and the one true timeline.
//
// Components schedule callbacks against absolute or relative simulated
// time; `run_until`/`run` drain the queue in timestamp order. "True time"
// (`now()`) is the oracle against which all clock offsets in experiments
// are measured — it plays the role of the paper's NIST-disciplined
// reference ("true time offset" from ntpq, §3.2).
#pragma once

#include <cstdint>
#include <utility>

#include "core/time.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"

namespace mntp::sim {

class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated (true) time.
  [[nodiscard]] core::TimePoint now() const { return now_; }

  /// Schedule at an absolute instant; instants in the past fire
  /// immediately on the next run step (clamped to now). The callable is
  /// forwarded straight into the queue's slab (see EventQueue::schedule).
  template <typename F>
  EventHandle at(core::TimePoint when, F&& action) {
    if (when < now_) when = now_;
    return queue_.schedule(when, std::forward<F>(action));
  }

  /// Schedule after a (non-negative) delay from now.
  template <typename F>
  EventHandle after(core::Duration delay, F&& action) {
    if (delay < core::Duration::zero()) delay = core::Duration::zero();
    return queue_.schedule(now_ + delay, std::forward<F>(action));
  }

  /// Run every event with timestamp <= `deadline`, in order. On return
  /// now() == max(now(), deadline) — even when no event fired at the
  /// deadline itself — so subsequent relative scheduling (`after`) is
  /// anchored at the deadline. A deadline in the past is a no-op.
  void run_until(core::TimePoint deadline);

  /// Run until the queue is fully drained.
  void run();

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  [[nodiscard]] EventQueue& queue() { return queue_; }

  /// Telemetry context this simulation records into. Bound at
  /// construction to the then-current obs::Telemetry::global(); the sink
  /// for event-queue stats (sim.events_dispatched, sim.queue_depth).
  [[nodiscard]] obs::Telemetry& telemetry() const { return *telemetry_; }

 private:
  void dispatch_next();
  /// Timeline sampling (obs/timeseries.h): when the bound telemetry's
  /// TimeSeriesRecorder is capturing on this thread at construction,
  /// run_until() arms a self-rescheduling sampler event that
  /// calls recorder.sample(now) on the recorder's cadence, bounded by the
  /// run_until deadline (never by run(), which must drain the queue).
  /// With the recorder off — the default — nothing is ever scheduled, so
  /// event interleaving is untouched.
  void arm_sampler(core::TimePoint deadline);
  void schedule_next_sample();

  EventQueue queue_;
  core::TimePoint now_;
  std::uint64_t executed_ = 0;
  obs::Telemetry* telemetry_;
  obs::ShardedCounter* dispatched_counter_;
  obs::ShardedHdrHistogram* queue_depth_;
  obs::TimeSeriesRecorder* timeline_ = nullptr;
  bool timeline_capturing_ = false;
  core::TimePoint next_sample_;
  core::TimePoint sampler_deadline_;
  EventHandle sampler_event_;
  obs::ProbeHandle queue_depth_probe_;
};

/// Repeating task helper: runs `action` every `interval`, starting at
/// `start`, until cancelled or the simulation stops running. The action
/// may cancel the process from within itself.
class PeriodicProcess {
 public:
  using Action = EventQueue::Action;

  PeriodicProcess(Simulation& sim, core::Duration interval, Action action)
      : sim_(sim), interval_(interval), action_(std::move(action)) {}

  ~PeriodicProcess() { stop(); }
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Begin firing; the first invocation happens after `initial_delay`.
  void start(core::Duration initial_delay = core::Duration::zero());

  /// Cancel the pending invocation and stop rescheduling.
  void stop();

  /// Change the interval; takes effect at the next reschedule.
  void set_interval(core::Duration interval) { interval_ = interval; }

  [[nodiscard]] bool running() const { return running_; }

 private:
  void fire();

  Simulation& sim_;
  core::Duration interval_;
  Action action_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace mntp::sim
