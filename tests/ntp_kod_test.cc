// Kiss-of-death handling (RFC 4330 §10): the query engine surfaces a KoD
// reply as its own error, and the SNTP client answers it by doubling its
// poll interval, up to 36 h.
#include <gtest/gtest.h>

#include "ntp/sntp_client.h"

namespace mntp::ntp {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

TEST(KissOfDeath, SntpClientBacksOff) {
  // One exchange with a server that answers everything with RATE.
  Rng rng(500);
  sim::Simulation sim;
  sim::DisciplinedClock clock(sim::OscillatorParams{}, rng.fork());
  NtpServerParams kod_params;
  kod_params.kiss_of_death = true;
  NtpServer kod("kod", kod_params, rng.fork());
  net::WiredLink up(net::WiredLinkParams::lan(), rng.fork());
  net::WiredLink down(net::WiredLinkParams::lan(), rng.fork());

  QueryEngine engine(sim, clock);
  ServerEndpoint ep;
  ep.server = &kod;
  ep.up.append(up);
  ep.down.append(down);
  int kod_count = 0;
  engine.query(ep, QueryOptions{}, [&](core::Result<SntpSample> r) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, core::Error::Code::kKissOfDeath);
    ++kod_count;
  });
  sim.run();
  EXPECT_EQ(kod_count, 1);
}

/// A client polling a pool whose single member rate-limits everything.
struct KodPool {
  explicit KodPool(std::uint64_t seed) : rng(seed), clock(sim::OscillatorParams{}, rng.fork()) {}

  ServerPool make_pool() {
    PoolParams pp;
    pp.server_count = 1;
    pp.kiss_of_death_count = 1;
    return ServerPool(pp, rng.fork());
  }

  Rng rng;
  sim::Simulation sim;
  sim::DisciplinedClock clock;
};

TEST(KissOfDeath, PolicyLengthensPollInterval) {
  KodPool f(501);
  ServerPool pool = f.make_pool();
  SntpClientPolicy policy;
  policy.poll_interval = Duration::seconds(8);
  SntpClient client(f.sim, f.clock, pool, nullptr, nullptr, policy);
  client.start();
  f.sim.run_until(TimePoint::epoch() + Duration::minutes(20));
  // Each KoD doubles the interval: 8 -> 16 -> 32 -> 64 -> ...
  ASSERT_GE(client.kod_backoffs(), 3u);
  Duration expected = policy.poll_interval;
  for (std::size_t i = 0; i < client.kod_backoffs(); ++i) expected = expected * 2;
  EXPECT_EQ(client.current_poll_interval(), expected);
  EXPECT_EQ(client.failures(), client.kod_backoffs());
  EXPECT_TRUE(client.samples().empty());
  // The backoff means far fewer polls than the base cadence would issue.
  EXPECT_LT(client.polls(), 1200u / 8u);
}

TEST(KissOfDeath, BackoffCapsAt36Hours) {
  KodPool f(505);
  ServerPool pool = f.make_pool();
  SntpClientPolicy policy;
  policy.poll_interval = Duration::hours(24);
  SntpClient client(f.sim, f.clock, pool, nullptr, nullptr, policy);
  client.start();
  f.sim.run_until(TimePoint::epoch() + Duration::hours(25));
  // Polls at 0 h and 24 h, each answered with a KoD: the first takes
  // 24 h to the 36 h cap rather than 48 h, the second stays there.
  EXPECT_EQ(client.polls(), 2u);
  EXPECT_EQ(client.kod_backoffs(), 2u);
  EXPECT_EQ(client.current_poll_interval(), Duration::hours(36));
}

}  // namespace
}  // namespace mntp::ntp
