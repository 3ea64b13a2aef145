// Pool, query engine, and SNTP client tests: one full exchange over
// simulated links, end to end.
#include <gtest/gtest.h>

#include "ntp/pool.h"
#include "ntp/sntp_client.h"
#include "ntp/transport.h"
#include "sim/simulation.h"

namespace mntp::ntp {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

sim::OscillatorParams clock_with_offset(double offset_s) {
  sim::OscillatorParams p;
  p.initial_offset_s = offset_s;
  return p;
}

struct Fixture {
  explicit Fixture(double client_offset_s = 0.0, PoolParams pool_params = {})
      : rng(5),
        clock(clock_with_offset(client_offset_s), rng.fork()),
        pool(pool_params, rng.fork()),
        engine(sim, clock) {}

  Rng rng;
  sim::Simulation sim;
  sim::DisciplinedClock clock;
  ServerPool pool;
  QueryEngine engine;
};

TEST(ServerPool, RejectsBadParams) {
  PoolParams p;
  p.server_count = 0;
  EXPECT_THROW(ServerPool(p, Rng(1)), std::invalid_argument);
  PoolParams q;
  q.server_count = 2;
  q.false_ticker_count = 3;
  EXPECT_THROW(ServerPool(q, Rng(1)), std::invalid_argument);
}

TEST(ServerPool, FalseTickersPlacedLast) {
  PoolParams p;
  p.server_count = 5;
  p.false_ticker_count = 2;
  ServerPool pool(p, Rng(2));
  EXPECT_FALSE(pool.is_false_ticker(0));
  EXPECT_FALSE(pool.is_false_ticker(2));
  EXPECT_TRUE(pool.is_false_ticker(3));
  EXPECT_TRUE(pool.is_false_ticker(4));
  EXPECT_GE(std::abs(pool.server(3).params().clock_offset_s), 0.1);
}

TEST(ServerPool, PickCoversAllMembers) {
  ServerPool pool(PoolParams{}, Rng(3));
  std::vector<int> hits(pool.size(), 0);
  for (int i = 0; i < 2000; ++i) ++hits[pool.pick_index()];
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_GT(hits[i], 100) << "member " << i;
  }
}

TEST(ServerPool, EndpointComposesLastHop) {
  Fixture f;
  const ServerEndpoint with_hop = f.pool.endpoint(0, nullptr, nullptr);
  EXPECT_EQ(with_hop.up.hop_count(), 1u);
  EXPECT_EQ(with_hop.down.hop_count(), 1u);
}

TEST(QueryEngine, PerfectSetupMeasuresNearZeroOffset) {
  Fixture f;
  bool done = false;
  f.engine.query(f.pool.endpoint(0, nullptr, nullptr), QueryOptions{},
                 [&](core::Result<SntpSample> r) {
                   done = true;
                   ASSERT_TRUE(r.ok());
                   // Bounded by path asymmetry + jitter: a few ms.
                   EXPECT_LT(r.value().offset.abs().to_millis(), 15.0);
                   EXPECT_GT(r.value().delay.to_millis(), 0.0);
                   EXPECT_GE(r.value().server_stratum, 1);
                   EXPECT_LE(r.value().server_stratum, 2);
                 });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.engine.requests_sent(), 1u);
  EXPECT_EQ(f.engine.responses_received(), 1u);
}

TEST(QueryEngine, MeasuresClientClockError) {
  Fixture f(/*client_offset_s=*/-0.2);  // client 200 ms behind
  bool done = false;
  f.engine.query(f.pool.endpoint(0, nullptr, nullptr), QueryOptions{},
                 [&](core::Result<SntpSample> r) {
                   done = true;
                   ASSERT_TRUE(r.ok());
                   EXPECT_NEAR(r.value().offset.to_millis(), 200.0, 15.0);
                 });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(QueryEngine, MeasuresFalseTickerOffset) {
  PoolParams pp;
  pp.server_count = 1;
  pp.false_ticker_count = 1;
  pp.false_ticker_offset_s = 0.35;
  Fixture f(0.0, pp);
  bool done = false;
  f.engine.query(f.pool.endpoint(0, nullptr, nullptr), QueryOptions{},
                 [&](core::Result<SntpSample> r) {
                   done = true;
                   ASSERT_TRUE(r.ok());
                   EXPECT_NEAR(r.value().offset.to_millis(), 350.0, 20.0);
                 });
  f.sim.run();
  EXPECT_TRUE(done);
}

/// Link that never delivers.
class BlackHole final : public net::Link {
 public:
  net::TransmitResult transmit(TimePoint, std::size_t) override {
    return {.delivered = false, .delay = Duration::zero()};
  }
};

TEST(QueryEngine, TimesOutOnDeadUplink) {
  Fixture f;
  BlackHole hole;
  bool done = false;
  QueryOptions opts;
  opts.timeout = Duration::seconds(2);
  f.engine.query(f.pool.endpoint(0, &hole, nullptr), opts,
                 [&](core::Result<SntpSample> r) {
                   done = true;
                   ASSERT_FALSE(r.ok());
                   EXPECT_EQ(r.error().code, core::Error::Code::kTimeout);
                 });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.engine.timeouts(), 1u);
  // Timeout fired at exactly +2 s.
  EXPECT_EQ(f.sim.now(), TimePoint::epoch() + Duration::seconds(2));
}

TEST(QueryEngine, TimesOutOnDeadDownlink) {
  Fixture f;
  BlackHole hole;
  bool done = false;
  f.engine.query(f.pool.endpoint(0, nullptr, &hole), QueryOptions{},
                 [&](core::Result<SntpSample> r) {
                   done = true;
                   EXPECT_FALSE(r.ok());
                 });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(QueryEngine, ExactlyOneCallbackPerQuery) {
  Fixture f;
  int callbacks = 0;
  for (int i = 0; i < 50; ++i) {
    f.engine.query(f.pool.endpoint(f.pool.pick_index(), nullptr, nullptr),
                   QueryOptions{}, [&](core::Result<SntpSample>) { ++callbacks; });
  }
  f.sim.run();
  EXPECT_EQ(callbacks, 50);
}

TEST(SntpClient, PollsAndRecordsSamples) {
  Fixture f;
  SntpClientPolicy policy;
  policy.poll_interval = Duration::seconds(5);
  SntpClient client(f.sim, f.clock, f.pool, nullptr, nullptr, policy);
  client.start();
  f.sim.run_until(TimePoint::epoch() + Duration::minutes(5));
  EXPECT_GE(client.polls(), 59u);
  EXPECT_GE(client.samples().size(), 55u);  // a few losses allowed
  EXPECT_EQ(client.offsets_ms().size(), client.samples().size());
}

TEST(SntpClient, UpdateClockStepsByEachOffset) {
  Fixture f(/*client_offset_s=*/-0.5);
  SntpClientPolicy policy;
  policy.poll_interval = Duration::seconds(5);
  policy.update_clock = true;
  SntpClient client(f.sim, f.clock, f.pool, nullptr, nullptr, policy);
  client.start();
  f.sim.run_until(TimePoint::epoch() + Duration::minutes(2));
  EXPECT_GE(client.clock_updates(), 1u);
  // SNTP stepped the clock toward true time.
  EXPECT_LT(std::abs(f.clock.offset_at(f.sim.now())), 0.05);
}

TEST(SntpClient, FailedPollIsNotRetried) {
  // All pool traffic through a dead last hop: the first poll times out
  // after 2 s and counts one failure at once, with no retry in between.
  Fixture f;
  BlackHole hole;
  SntpClientPolicy policy;
  policy.poll_interval = Duration::seconds(30);
  QueryOptions opts;
  opts.timeout = Duration::seconds(2);
  SntpClient client(f.sim, f.clock, f.pool, &hole, &hole, policy, opts);
  client.start();
  f.sim.run_until(TimePoint::epoch() + Duration::seconds(3));
  EXPECT_EQ(client.polls(), 1u);
  EXPECT_EQ(client.failures(), 1u);
}

TEST(SntpClient, OnSampleObserverFires) {
  Fixture f;
  SntpClientPolicy policy;
  SntpClient client(f.sim, f.clock, f.pool, nullptr, nullptr, policy);
  int observed = 0;
  client.set_on_sample([&](const SntpSample&) { ++observed; });
  client.start();
  f.sim.run_until(TimePoint::epoch() + Duration::minutes(1));
  EXPECT_GT(observed, 5);
  EXPECT_EQ(static_cast<std::size_t>(observed), client.samples().size());
}

}  // namespace
}  // namespace mntp::ntp
