// Robustness and property tests across modules: fuzz-style parser
// hardening, brute-force cross-checks of the selection algorithm, event
// queue stress, and whole-experiment determinism sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"
#include "ntp/packet.h"
#include "ntp/selection.h"
#include "sim/event_queue.h"
#include "ntp/testbed.h"
#include "mntp/mntp_client.h"

namespace mntp {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

TEST(FuzzNtpParser, RandomBytesNeverCrash) {
  Rng rng(1000);
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 96)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto r = ntp::NtpPacket::parse(bytes);
    if (r.ok()) {
      // Whatever parsed must re-serialize to a parseable packet.
      const auto again = ntp::NtpPacket::parse(r.value().to_bytes());
      ASSERT_TRUE(again.ok());
    }
  }
}

TEST(FuzzNtpParser, BitFlipsOfValidPacketHandledCleanly) {
  Rng rng(1001);
  ntp::NtpPacket base = ntp::NtpPacket::make_ntp_request(
      core::NtpTimestamp::from_parts(1234, 5678), 6,
      core::NtpTimestamp::from_parts(1, 2));
  const auto wire = base.to_bytes();
  for (int i = 0; i < 5000; ++i) {
    auto mutated = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    // Either parses (most field mutations are legal values) or errors;
    // never crashes, never loops.
    (void)ntp::NtpPacket::parse(mutated);
  }
}

TEST(ServerHandlesFuzzedRequests, NeverCrashesAndNeverAnswersGarbage) {
  Rng rng(1003);
  ntp::NtpServer server("fuzz", ntp::NtpServerParams{}, rng.fork());
  std::size_t answered = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> bytes(48);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto reply = server.handle(
        bytes, TimePoint::epoch() + Duration::seconds(i + 1));
    if (reply.ok()) {
      ++answered;
      EXPECT_EQ(reply.value().packet.mode, ntp::Mode::kServer);
    }
  }
  // Only client-mode packets get answers (~1/8 of random mode bits, of
  // the ~1/2 with valid version bits).
  EXPECT_LT(answered, 2500u);
}

// Brute-force reference for the intersection algorithm on small inputs:
// find the largest subset of intervals with a common point, preferring
// fewer assumed falsetickers, and compare survivor *counts*.
std::size_t brute_force_max_clique(const std::vector<ntp::PeerEstimate>& peers) {
  std::size_t best = 0;
  // Candidate intersection points: all interval endpoints.
  std::vector<double> candidates;
  for (const auto& p : peers) {
    const double o = p.offset.to_seconds();
    const double r = std::max(p.root_distance().to_seconds(), 1e-9);
    candidates.push_back(o - r);
    candidates.push_back(o + r);
  }
  for (double x : candidates) {
    std::size_t covering = 0;
    for (const auto& p : peers) {
      const double o = p.offset.to_seconds();
      const double r = std::max(p.root_distance().to_seconds(), 1e-9);
      if (o - r <= x && x <= o + r) ++covering;
    }
    best = std::max(best, covering);
  }
  return best;
}

TEST(SelectionProperty, MatchesBruteForceCliqueSize) {
  Rng rng(1004);
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 7));
    std::vector<ntp::PeerEstimate> peers;
    for (std::size_t i = 0; i < n; ++i) {
      ntp::PeerEstimate e;
      e.offset = Duration::from_millis(rng.uniform(-100, 100));
      e.delay = Duration::from_millis(rng.uniform(1, 60));
      e.dispersion = Duration::from_millis(rng.uniform(0, 10));
      e.jitter_s = 1e-3;
      peers.push_back(e);
    }
    const auto chimers = ntp::select_truechimers(peers);
    const std::size_t clique = brute_force_max_clique(peers);
    if (clique * 2 > n) {
      // A majority clique exists: the algorithm must find a survivor set
      // that includes it (survivors are peers overlapping the
      // intersection, so count >= clique size).
      ASSERT_GE(chimers.size(), clique) << "trial " << trial;
    } else {
      ASSERT_TRUE(chimers.empty()) << "trial " << trial;
    }
  }
}

TEST(EventQueueStress, ManyInterleavedSchedulesAndCancels) {
  Rng rng(1005);
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  std::int64_t executed = 0;
  std::int64_t scheduled = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 50; ++i) {
      const auto when =
          TimePoint::epoch() + Duration::milliseconds(rng.uniform_int(0, 10000));
      handles.push_back(q.schedule(when, [&] { ++executed; }));
      ++scheduled;
    }
    // Cancel a random third.
    for (int i = 0; i < 16 && !handles.empty(); ++i) {
      const auto at = rng.index(handles.size());
      handles[at].cancel();
      handles.erase(handles.begin() +
                    static_cast<std::ptrdiff_t>(at));
    }
    // Drain a few.
    for (int i = 0; i < 30 && !q.empty(); ++i) (void)q.run_next();
  }
  while (!q.empty()) (void)q.run_next();
  EXPECT_GT(executed, 0);
  EXPECT_LE(executed, scheduled);
}

TEST(EventQueueStress, TimeOrderPreservedUnderLoad) {
  Rng rng(1006);
  sim::EventQueue q;
  TimePoint last = TimePoint::epoch();
  bool ordered = true;
  for (int i = 0; i < 5000; ++i) {
    const auto when =
        TimePoint::epoch() + Duration::microseconds(rng.uniform_int(0, 1000000));
    q.schedule(when, [] {});
  }
  while (!q.empty()) {
    const TimePoint t = q.run_next();
    ordered &= t >= last;
    last = t;
  }
  EXPECT_TRUE(ordered);
}

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, FullExperimentReplaysBitIdentically) {
  auto run = [&] {
    ntp::TestbedConfig config;
    config.seed = GetParam();
    config.wireless = true;
    ntp::Testbed bed(config);
    protocol::MntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                                bed.channel(), protocol::head_to_head_params(),
                                bed.fork_rng());
    bed.start();
    client.start();
    bed.sim().run_until(TimePoint::epoch() + Duration::minutes(10));
    auto offsets = client.engine().accepted_offsets_ms();
    offsets.push_back(bed.true_clock_offset_ms());
    offsets.push_back(static_cast<double>(bed.sim().events_executed()));
    return offsets;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(1, 7, 99, 12345, 0xDEADBEEF));

}  // namespace
}  // namespace mntp
