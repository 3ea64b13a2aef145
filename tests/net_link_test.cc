#include "net/link.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/stats.h"
#include "net/wired_link.h"
#include "sim/simulation.h"

namespace mntp::net {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

/// Test double: fixed delay, scripted drops, records query times.
class FakeLink final : public Link {
 public:
  explicit FakeLink(Duration delay, bool deliver = true)
      : delay_(delay), deliver_(deliver) {}

  TransmitResult transmit(TimePoint now, std::size_t bytes) override {
    queries.push_back(now);
    last_bytes = bytes;
    return {.delivered = deliver_, .delay = delay_};
  }

  std::vector<TimePoint> queries;
  std::size_t last_bytes = 0;

 private:
  Duration delay_;
  bool deliver_;
};

TEST(LinkPath, HopAccessors) {
  FakeLink a(Duration::milliseconds(1));
  FakeLink b(Duration::milliseconds(2));
  LinkPath path({&a, &b});
  EXPECT_EQ(path.hop_count(), 2u);
  EXPECT_EQ(&path.hop(0), &a);
  EXPECT_EQ(&path.hop(1), &b);
}

TEST(LinkPath, AppendPastCapacityThrows) {
  FakeLink a(Duration::milliseconds(1));
  LinkPath path;
  for (std::size_t i = 0; i < LinkPath::kMaxHops; ++i) path.append(a);
  EXPECT_THROW(path.append(a), std::length_error);
  EXPECT_EQ(path.hop_count(), LinkPath::kMaxHops);
}

TEST(LinkPath, HopPastCountThrows) {
  FakeLink a(Duration::milliseconds(1));
  LinkPath path({&a});
  EXPECT_THROW((void)path.hop(path.hop_count()), std::out_of_range);
  EXPECT_THROW((void)LinkPath{}.hop(0), std::out_of_range);
}

TEST(SendDatagram, SimulationDestroyedInFlightFreesWalkers) {
  // A datagram's walker is owned by its pending hop event: destroying
  // the simulation with the packet mid-path frees the walker and the
  // callbacks it holds, without firing either of them.
  FakeLink a(Duration::milliseconds(10));
  FakeLink b(Duration::milliseconds(25));
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  int fired = 0;
  {
    std::optional<sim::Simulation> sim;
    sim.emplace();
    for (int i = 0; i < 3; ++i) {
      send_datagram(
          *sim, LinkPath({&a, &b}), 1,
          [token, &fired](TimePoint) { ++fired; },
          [token, &fired] { ++fired; });
    }
    token.reset();
    sim->run_until(TimePoint::epoch() + Duration::milliseconds(20));
    EXPECT_EQ(a.queries.size(), 3u);
    EXPECT_EQ(b.queries.size(), 3u);  // all three still on their way out
    EXPECT_FALSE(watch.expired());
    sim.reset();
  }
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(fired, 0);
}

TEST(SendDatagram, DelaysAccumulateAndArrivalFires) {
  sim::Simulation sim;
  FakeLink a(Duration::milliseconds(10));
  FakeLink b(Duration::milliseconds(25));
  bool arrived = false;
  send_datagram(sim, LinkPath({&a, &b}), 48, [&](TimePoint t) {
    arrived = true;
    EXPECT_EQ(t, TimePoint::epoch() + Duration::milliseconds(35));
  });
  sim.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(a.last_bytes, 48u);
  EXPECT_EQ(b.last_bytes, 48u);
}

TEST(SendDatagram, EachHopQueriedAtItsArrivalTime) {
  // The stateful-link contract: hop N is evaluated at the packet's
  // arrival time at hop N, not at send time.
  sim::Simulation sim;
  FakeLink a(Duration::milliseconds(10));
  FakeLink b(Duration::milliseconds(25));
  FakeLink c(Duration::milliseconds(5));
  send_datagram(sim, LinkPath({&a, &b, &c}), 1, [](TimePoint) {});
  sim.run();
  ASSERT_EQ(a.queries.size(), 1u);
  ASSERT_EQ(b.queries.size(), 1u);
  ASSERT_EQ(c.queries.size(), 1u);
  EXPECT_EQ(a.queries[0], TimePoint::epoch());
  EXPECT_EQ(b.queries[0], TimePoint::epoch() + Duration::milliseconds(10));
  EXPECT_EQ(c.queries[0], TimePoint::epoch() + Duration::milliseconds(35));
}

TEST(SendDatagram, DropInvokesOnDropOnce) {
  sim::Simulation sim;
  FakeLink a(Duration::milliseconds(10));
  FakeLink dead(Duration::zero(), /*deliver=*/false);
  FakeLink c(Duration::milliseconds(5));
  int arrivals = 0, drops = 0;
  send_datagram(
      sim, LinkPath({&a, &dead, &c}), 1, [&](TimePoint) { ++arrivals; },
      [&] { ++drops; });
  sim.run();
  EXPECT_EQ(arrivals, 0);
  EXPECT_EQ(drops, 1);
  EXPECT_TRUE(c.queries.empty());  // never reached hop 3
}

TEST(SendDatagram, EmptyPathDeliversImmediately) {
  sim::Simulation sim;
  bool arrived = false;
  send_datagram(sim, LinkPath{}, 1, [&](TimePoint t) {
    arrived = true;
    EXPECT_EQ(t, TimePoint::epoch());
  });
  sim.run();
  EXPECT_TRUE(arrived);
}

TEST(SendDatagram, MissingOnDropIsSafe) {
  sim::Simulation sim;
  FakeLink dead(Duration::zero(), false);
  send_datagram(sim, LinkPath({&dead}), 1, [](TimePoint) { FAIL(); });
  sim.run();  // no crash
}

TEST(WiredLink, DelayAboveBase) {
  WiredLinkParams p = WiredLinkParams::wan(Duration::milliseconds(20));
  p.loss_probability = 0.0;
  WiredLink link(p, Rng(3));
  for (int i = 0; i < 200; ++i) {
    const TransmitResult r = link.transmit(TimePoint::epoch(), 76);
    ASSERT_TRUE(r.delivered);
    ASSERT_GE(r.delay, p.base_delay);
  }
}

TEST(WiredLink, LossRateApproximatesParameter) {
  WiredLinkParams p = WiredLinkParams::lan();
  p.loss_probability = 0.2;
  WiredLink link(p, Rng(4));
  int lost = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!link.transmit(TimePoint::epoch(), 1).delivered) ++lost;
  }
  EXPECT_NEAR(lost / 5000.0, 0.2, 0.03);
}

TEST(WiredLink, SerializationScalesWithBytes) {
  WiredLinkParams p;
  p.base_delay = Duration::zero();
  p.jitter_median = Duration::zero();
  p.loss_probability = 0.0;
  p.bytes_per_second = 1e6;  // 1 MB/s
  WiredLink link(p, Rng(5));
  const TransmitResult r = link.transmit(TimePoint::epoch(), 500'000);
  EXPECT_NEAR(r.delay.to_seconds(), 0.5, 1e-9);
}

TEST(WiredLink, RejectsBadLossProbability) {
  WiredLinkParams p;
  p.loss_probability = 1.5;
  EXPECT_THROW(WiredLink(p, Rng(1)), std::invalid_argument);
}

TEST(WiredLink, LanPresetIsSubMillisecond) {
  WiredLink link(WiredLinkParams::lan(), Rng(6));
  core::RunningStats delays;
  for (int i = 0; i < 500; ++i) {
    const auto r = link.transmit(TimePoint::epoch(), 76);
    if (r.delivered) delays.add(r.delay.to_millis());
  }
  EXPECT_LT(delays.mean(), 1.0);
}

}  // namespace
}  // namespace mntp::net
