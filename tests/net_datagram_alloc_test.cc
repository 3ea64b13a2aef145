// Allocation budget of the datagram path: each send_datagram makes one
// heap allocation (its walker); event captures cannot spill out of the
// event queue's inline buffer (that does not compile). Warm runs of the ping monitor, an SNTP
// client and the Fig 12 head-to-head are measured against that budget.
// Uses the same global operator new/delete counting hook as
// sim_event_alloc_test.cc (one hook per test binary).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/rng.h"
#include "mntp/mntp_client.h"
#include "mntp/params.h"
#include "net/link.h"
#include "net/pinger.h"
#include "net/wired_link.h"
#include "net/wireless_channel.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"
#include "sim/simulation.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Replace the global allocator with a counting passthrough. Linked only
// into this test binary; all overloads funnel through the same counter
// so any allocation path (sized, array, nothrow) is visible.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mntp {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

TEST(DatagramAllocation, PingerProbeAllocatesOnlyItsWalkers) {
  // A probe is two datagrams (echo and reply): one walker each. A probe
  // lost on the way out never sends its reply.
  sim::Simulation sim;
  net::WirelessChannel channel(net::WirelessChannelParams{}, Rng(31));
  net::WiredLink wan_up(net::WiredLinkParams::wan(Duration::milliseconds(8)),
                        Rng(32));
  net::WiredLink wan_down(
      net::WiredLinkParams::wan(Duration::milliseconds(8)), Rng(33));
  net::Pinger pinger(sim, net::LinkPath({&channel.uplink(), &wan_up}),
                     net::LinkPath({&wan_down, &channel.downlink()}),
                     net::PingerParams{});
  pinger.start();
  TimePoint t = TimePoint::epoch() + Duration::seconds(100);
  sim.run_until(t);

  const std::size_t sent_before = pinger.total_sent();
  const std::uint64_t news_before = news();
  t += Duration::seconds(10'000);
  sim.run_until(t);
  const double probes =
      static_cast<double>(pinger.total_sent() - sent_before);
  ASSERT_GE(probes, 10'000.0);
  const double per_probe = static_cast<double>(news() - news_before) / probes;
  EXPECT_LE(per_probe, 2.0) << "allocations per ping probe";
}

TEST(DatagramAllocation, SntpPollStaysWithinBudget) {
  // A poll is one exchange: the Exchange, the request walker and the
  // reply walker, plus the amortized growth of the client's sample log.
  ntp::TestbedConfig config;
  config.seed = 5;
  config.monitor_active = false;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(),
                       {.poll_interval = Duration::seconds(5)});
  bed.start();
  sntp.start();
  TimePoint t = TimePoint::epoch() + Duration::minutes(10);
  bed.sim().run_until(t);

  const std::uint64_t polls_before = sntp.polls();
  const std::uint64_t news_before = news();
  t += Duration::seconds(10'000);
  bed.sim().run_until(t);
  const double polls = static_cast<double>(sntp.polls() - polls_before);
  ASSERT_GE(polls, 2'000.0);
  const double per_poll = static_cast<double>(news() - news_before) / polls;
  EXPECT_LE(per_poll, 3.5) << "allocations per SNTP poll";
}

TEST(DatagramAllocation, HeadToHeadSchedulesNoHeapCaptures) {
  // The Fig 12 head-to-head (wireless, free-running clock, SNTP every
  // 5 s next to MNTP). Every callback and event capture stays inline by
  // construction (FixedFunction has no heap fallback), so the warm
  // window's allocations are the exchanges' own (three each) plus what
  // the clients log: MNTP's hint checks, round records and vote
  // vectors. 10.6 per exchange at this seed.
  ntp::TestbedConfig config;
  config.seed = 7;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(),
                       {.poll_interval = Duration::seconds(5)});
  protocol::MntpClient mntp_client(bed.sim(), bed.target_clock(), bed.pool(),
                                   bed.channel(),
                                   protocol::head_to_head_params(),
                                   bed.fork_rng());
  bed.start();
  sntp.start();
  mntp_client.start();
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(10));

  const std::uint64_t exchanges_before =
      sntp.polls() + mntp_client.requests_sent();
  const std::uint64_t news_before = news();
  bed.sim().run_until(TimePoint::epoch() + Duration::hours(4));
  const double exchanges = static_cast<double>(
      sntp.polls() + mntp_client.requests_sent() - exchanges_before);
  ASSERT_GT(sntp.polls(), 2'000u);
  const double per_exchange =
      static_cast<double>(news() - news_before) / exchanges;
  EXPECT_LE(per_exchange, 12.0) << "allocations per head-to-head exchange";
}

}  // namespace
}  // namespace mntp
