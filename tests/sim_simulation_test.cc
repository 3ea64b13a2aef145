#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace mntp::sim {
namespace {

using core::Duration;
using core::TimePoint;

TEST(Simulation, NowAdvancesWithEvents) {
  Simulation sim;
  std::vector<double> times;
  sim.after(Duration::seconds(1), [&] { times.push_back(sim.now().to_seconds()); });
  sim.after(Duration::seconds(3), [&] { times.push_back(sim.now().to_seconds()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int ran = 0;
  sim.after(Duration::seconds(1), [&] { ++ran; });
  sim.after(Duration::seconds(5), [&] { ++ran; });
  sim.run_until(TimePoint::epoch() + Duration::seconds(2));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::seconds(2));
  sim.run_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, EventAtDeadlineRuns) {
  Simulation sim;
  bool ran = false;
  sim.after(Duration::seconds(2), [&] { ran = true; });
  sim.run_until(TimePoint::epoch() + Duration::seconds(2));
  EXPECT_TRUE(ran);
}

// Regression tests for the run_until contract: now() always lands on the
// deadline (never short of it), even with an empty queue, and a deadline
// in the past is a no-op that leaves now() untouched.
TEST(Simulation, RunUntilAdvancesNowWithEmptyQueue) {
  Simulation sim;
  sim.run_until(TimePoint::epoch() + Duration::seconds(4));
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::seconds(4));
  EXPECT_EQ(sim.events_executed(), 0u);
  // Relative scheduling is anchored at the deadline just reached.
  double fired_at = -1.0;
  sim.after(Duration::seconds(1), [&] { fired_at = sim.now().to_seconds(); });
  sim.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(Simulation, RunUntilAdvancesNowPastLastEvent) {
  Simulation sim;
  double fired_at = -1.0;
  sim.after(Duration::seconds(1), [&] { fired_at = sim.now().to_seconds(); });
  sim.after(Duration::seconds(9), [&] { fired_at = sim.now().to_seconds(); });
  sim.run_until(TimePoint::epoch() + Duration::seconds(3));
  // The t=1 event ran, the t=9 event did not, and now() sits at the
  // deadline rather than at the last event fired.
  EXPECT_EQ(fired_at, 1.0);
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::seconds(3));
}

TEST(Simulation, RunUntilPastDeadlineIsNoOp) {
  Simulation sim;
  int ran = 0;
  sim.after(Duration::seconds(2), [&] { ++ran; });
  sim.run_until(TimePoint::epoch() + Duration::seconds(5));
  EXPECT_EQ(ran, 1);
  // A deadline behind now() must neither rewind time nor fire anything.
  sim.after(Duration::seconds(4), [&] { ++ran; });
  sim.run_until(TimePoint::epoch() + Duration::seconds(3));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::seconds(5));
}

TEST(Simulation, DispatchCountsAreObservable) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  Simulation sim;
  for (int i = 0; i < 5; ++i) {
    sim.after(Duration::seconds(i), [] {});
  }
  sim.run();
  const obs::ShardedCounter* dispatched =
      telemetry.metrics().counter("sim.events_dispatched");
  EXPECT_EQ(dispatched->value(), 5u);
}

TEST(Simulation, PastSchedulingClampsToNow) {
  Simulation sim;
  sim.after(Duration::seconds(5), [&] {
    // Schedule "in the past" from inside an event.
    sim.at(TimePoint::epoch() + Duration::seconds(1), [&] {
      EXPECT_EQ(sim.now().to_seconds(), 5.0);
    });
  });
  sim.run();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulation, NegativeDelayClamps) {
  Simulation sim;
  bool ran = false;
  sim.after(Duration::seconds(-3), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), TimePoint::epoch());
}

TEST(PeriodicProcess, FiresAtInterval) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicProcess p(sim, Duration::seconds(2),
                    [&] { fired.push_back(sim.now().to_seconds()); });
  p.start();  // first fire immediately (t=0)
  sim.run_until(TimePoint::epoch() + Duration::seconds(7));
  EXPECT_EQ(fired, (std::vector<double>{0.0, 2.0, 4.0, 6.0}));
}

TEST(PeriodicProcess, InitialDelay) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicProcess p(sim, Duration::seconds(5),
                    [&] { fired.push_back(sim.now().to_seconds()); });
  p.start(Duration::seconds(1));
  sim.run_until(TimePoint::epoch() + Duration::seconds(12));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 6.0, 11.0}));
}

TEST(PeriodicProcess, StopHalts) {
  Simulation sim;
  int count = 0;
  PeriodicProcess p(sim, Duration::seconds(1), [&] { ++count; });
  p.start();
  sim.run_until(TimePoint::epoch() + Duration::milliseconds(2500));
  EXPECT_TRUE(p.running());
  p.stop();
  EXPECT_FALSE(p.running());
  sim.run_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_EQ(count, 3);  // t=0,1,2
}

TEST(PeriodicProcess, ActionMayStopItself) {
  Simulation sim;
  int count = 0;
  PeriodicProcess p(sim, Duration::seconds(1), [&] {
    if (++count == 2) p.stop();
  });
  p.start();
  sim.run_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicProcess, SetIntervalTakesEffect) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicProcess p(sim, Duration::seconds(1),
                    [&] { fired.push_back(sim.now().to_seconds()); });
  p.start();
  sim.run_until(TimePoint::epoch() + Duration::milliseconds(1500));
  p.set_interval(Duration::seconds(3));
  sim.run_until(TimePoint::epoch() + Duration::seconds(9));
  // t=0,1 at 1s cadence; the pending event at t=2 fires, then 3s cadence.
  EXPECT_EQ(fired, (std::vector<double>{0.0, 1.0, 2.0, 5.0, 8.0}));
}

TEST(PeriodicProcess, DestructorCancels) {
  Simulation sim;
  int count = 0;
  {
    PeriodicProcess p(sim, Duration::seconds(1), [&] { ++count; });
    p.start();
    sim.run_until(TimePoint::epoch() + Duration::milliseconds(500));
  }
  sim.run_until(TimePoint::epoch() + Duration::seconds(5));
  EXPECT_EQ(count, 1);  // only the t=0 firing
}

}  // namespace
}  // namespace mntp::sim
