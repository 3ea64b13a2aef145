// Log substrate tests: spec tables, classifiers, the server-log renderer
// (fleet/server_log.h), analyzer.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fleet/client_fleet.h"
#include "fleet/server_log.h"
#include "logs/analyze.h"
#include "logs/classify.h"
#include "logs/spec.h"

namespace mntp::logs {
namespace {

TEST(Spec, PaperTablesWellFormed) {
  EXPECT_EQ(kPaperServers.size(), 19u);
  EXPECT_EQ(kPaperProviders.size(), 25u);
  std::uint64_t total = 0;
  for (const auto& s : kPaperServers) {
    EXPECT_FALSE(s.id.empty());
    EXPECT_GE(s.stratum, 1);
    EXPECT_LE(s.stratum, 2);
    EXPECT_GE(s.total_measurements, s.unique_clients);
    total += s.total_measurements;
  }
  // Table 1 sums to the paper's 209,447,922 measurements.
  EXPECT_EQ(total, 209'447'922ull);
  // Table 1's per-server counts sum to 15.3M; the paper's abstract quotes
  // 17.8M unique clients (the table presumably de-duplicates differently).
  std::uint64_t clients = 0;
  for (const auto& s : kPaperServers) clients += s.unique_clients;
  EXPECT_EQ(clients, 15'303'436ull);
}

TEST(Spec, ProviderCategoriesOrderedByLatency) {
  // Category medians must rank cloud < isp < broadband < mobile.
  double prev = 0.0;
  for (auto cat : {ProviderCategory::kCloud, ProviderCategory::kIsp,
                   ProviderCategory::kBroadband, ProviderCategory::kMobile}) {
    double sum = 0.0;
    int n = 0;
    for (const auto& p : kPaperProviders) {
      if (p.category == cat) {
        sum += p.min_owd_median_ms;
        ++n;
      }
    }
    const double mean = sum / n;
    EXPECT_GT(mean, prev);
    prev = mean;
  }
}

TEST(Classify, HostnameKeywordsResolveProviders) {
  const auto p = provider_from_hostname("host123.mobile.example.org");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(kPaperProviders[*p].category, ProviderCategory::kMobile);
  EXPECT_EQ(category_from_hostname("node.amazon.example.org"),
            ProviderCategory::kCloud);
  EXPECT_EQ(category_from_hostname("x.dsl.example.org"),
            ProviderCategory::kBroadband);
  EXPECT_EQ(category_from_hostname("y.telecom.example.org"),
            ProviderCategory::kIsp);
}

TEST(Classify, CaseInsensitive) {
  EXPECT_EQ(category_from_hostname("HOST1.MOBILE.EXAMPLE.ORG"),
            ProviderCategory::kMobile);
}

TEST(Classify, UnknownHostnameUnclassified) {
  EXPECT_FALSE(provider_from_hostname("plain.example.xyz").has_value());
  EXPECT_FALSE(category_from_hostname("").has_value());
}

TEST(Classify, LongestKeywordWins) {
  // "broadband" contains no other keyword; but a hostname with both
  // "net" (SP 6) and "wireless" (SP 23) must pick the longer keyword.
  const auto p = provider_from_hostname("a.wireless.example.org");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(kPaperProviders[*p].keyword, "wireless");
}

TEST(Classify, ProtocolFromPacket) {
  const auto sntp = ntp::NtpPacket::make_sntp_request(
      core::NtpTimestamp::from_parts(1, 2));
  EXPECT_EQ(classify_protocol(sntp), Protocol::kSntp);
  const auto full = ntp::NtpPacket::make_ntp_request(
      core::NtpTimestamp::from_parts(1, 2), 6, core::NtpTimestamp::from_parts(3, 4));
  EXPECT_EQ(classify_protocol(full), Protocol::kNtp);
}

// Every log test reads the population Table 1 and Figures 1-2 analyse
// (fleet::section31_params), through the same renderer.
const fleet::FleetParams& population_params() {
  static const fleet::FleetParams params = fleet::section31_params();
  return params;
}

const fleet::ClientFleet& population() {
  static const fleet::ClientFleet fleet =
      fleet::ClientFleet::build(population_params());
  return fleet;
}

ServerLog render(std::size_t server) {
  return fleet::server_log(population(), population_params(), server);
}

Protocol protocol_of(const ClientRecord& c) {
  const auto packet = ntp::NtpPacket::parse(c.request_wire);
  EXPECT_TRUE(packet.ok());
  return classify_protocol(packet.value());
}

void expect_same_record(const ClientRecord& a, const ClientRecord& b) {
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.hostname, b.hostname);
  EXPECT_EQ(a.provider_index, b.provider_index);
  EXPECT_EQ(a.request_wire, b.request_wire);
  EXPECT_EQ(a.request_count, b.request_count);
  EXPECT_EQ(a.owd_samples_ms, b.owd_samples_ms);
}

TEST(Generator, ClientCountsScale) {
  const ServerLog ag1 = render(0);  // AG1: 639,704 clients
  // Home servers are drawn per client, so a server's count is binomial
  // around its Table-1 share: within 4 standard deviations.
  const double expected = 639'704.0 * fleet::kSection31Scale;
  EXPECT_NEAR(static_cast<double>(ag1.clients.size()), expected,
              4.0 * std::sqrt(expected));
  const ServerLog ci1 = render(1);  // CI1: 606 clients
  EXPECT_GE(ci1.clients.size(), 1u);
}

TEST(Generator, Deterministic) {
  // Two fleets built from the same parameters render the same log.
  const fleet::ClientFleet again =
      fleet::ClientFleet::build(population_params());
  const ServerLog la = render(0);
  const ServerLog lb = fleet::server_log(again, population_params(), 0);
  ASSERT_EQ(la.clients.size(), lb.clients.size());
  for (std::size_t i = 0; i < la.clients.size(); ++i) {
    ASSERT_EQ(la.clients[i].hostname, lb.clients[i].hostname);
    ASSERT_EQ(la.clients[i].request_count, lb.clients[i].request_count);
  }
}

TEST(Generator, ClientsCarryParseableRequests) {
  const ServerLog log = render(0);
  for (const auto& c : log.clients) {
    const auto p = ntp::NtpPacket::parse(c.request_wire);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().mode, ntp::Mode::kClient);
  }
}

TEST(Generator, OwdsWithinObservedRange) {
  const ServerLog log = render(0);
  for (const auto& c : log.clients) {
    EXPECT_FALSE(c.owd_samples_ms.empty());
    for (float owd : c.owd_samples_ms) {
      if (owd < 0) continue;  // invalid marker
      EXPECT_GE(owd, 1.0F);
      EXPECT_LE(owd, 3000.0F);
    }
  }
}

TEST(Generator, IspInternalServersSkewIsp) {
  const ServerLog ci1 = render(1);  // CI1, isp_internal
  ASSERT_FALSE(ci1.clients.empty());
  std::size_t isp = 0;
  for (const auto& c : ci1.clients) {
    if (kPaperProviders[c.provider_index].category == ProviderCategory::kIsp) {
      ++isp;
    }
  }
  EXPECT_GT(static_cast<double>(isp) / ci1.clients.size(), 0.5);
}

TEST(ServerLog, ClientsAreTheFleetRowsOfTheServer) {
  // Each server's log holds exactly the fleet rows homed there, in id
  // order, with the row's provider, speaker and synchronization state.
  const std::vector<fleet::ClientRow>& rows = population().rows();
  for (std::size_t s = 0; s < kPaperServers.size(); ++s) {
    const ServerLog log = render(s);
    EXPECT_EQ(log.spec.id, kPaperServers[s].id);
    std::vector<std::uint64_t> homed;
    for (std::size_t id = 0; id < rows.size(); ++id) {
      if (rows[id].server == s) homed.push_back(id);
    }
    ASSERT_EQ(log.clients.size(), homed.size()) << kPaperServers[s].id;
    for (std::size_t i = 0; i < homed.size(); ++i) {
      const ClientRecord& c = log.clients[i];
      const fleet::ClientRow& row = rows[homed[i]];
      ASSERT_EQ(c.client_id, homed[i]);
      EXPECT_EQ(c.provider_index, row.provider);
      EXPECT_EQ(provider_from_hostname(c.hostname), row.provider);
      EXPECT_EQ(protocol_of(c) == Protocol::kSntp,
                fleet::speaker_of(row.traits) == fleet::Speaker::kSntp);
      const bool unsynchronized =
          (row.traits & fleet::ClientTraits::kUnsynchronized) != 0;
      EXPECT_EQ(LogAnalyzer::client_min_owd_ms(c).has_value(),
                !unsynchronized);
    }
  }
}

TEST(ServerLog, RenderIndependentOfOtherServers) {
  const ServerLog alone = render(14);  // SU1
  for (std::size_t s = 0; s < 14; ++s) (void)render(s);
  const ServerLog after_others = render(14);
  ASSERT_EQ(alone.clients.size(), after_others.clients.size());
  for (std::size_t i = 0; i < alone.clients.size(); ++i) {
    expect_same_record(alone.clients[i], after_others.clients[i]);
  }
}

TEST(Analyzer, ServerStatsCountsAndProtocolShares) {
  const ServerLog log = render(0);  // AG1, public
  const ServerStats stats = LogAnalyzer::server_stats(log);
  EXPECT_EQ(stats.server_id, "AG1");
  EXPECT_EQ(stats.unique_clients, log.clients.size());
  EXPECT_EQ(stats.sntp_clients + stats.ntp_clients, log.clients.size());
  EXPECT_EQ(stats.total_measurements, log.total_requests());
  // Public server: majority SNTP (Fig 2).
  EXPECT_GT(stats.sntp_share(), 0.5);
}

TEST(Analyzer, IspInternalServersAreNtpHeavy) {
  const ServerStats stats = LogAnalyzer::server_stats(render(1));  // CI1
  EXPECT_LT(stats.sntp_share(), 0.7);
}

TEST(Analyzer, MinOwdFiltersInvalidProbes) {
  ClientRecord c;
  c.owd_samples_ms = {-1.0F, 50.0F, 30.0F, -1.0F, 80.0F};
  const auto min = LogAnalyzer::client_min_owd_ms(c);
  ASSERT_TRUE(min.has_value());
  EXPECT_FLOAT_EQ(*min, 30.0F);
  ClientRecord all_invalid;
  all_invalid.owd_samples_ms = {-1.0F, -1.0F};
  EXPECT_FALSE(LogAnalyzer::client_min_owd_ms(all_invalid).has_value());
}

TEST(Analyzer, CategoryMediansReproducePaperOrdering) {
  // A few large public servers give enough clients per category.
  std::vector<ServerLog> logs;
  logs.push_back(render(0));   // AG1
  logs.push_back(render(14));  // SU1
  const auto medians = LogAnalyzer::category_median_owd_ms(logs);
  const double cloud = medians[0], isp = medians[1], broadband = medians[2],
               mobile = medians[3];
  EXPECT_LT(cloud, isp);
  EXPECT_LT(isp, broadband);
  EXPECT_LT(broadband, mobile);
  // Paper headline numbers: ~40 / ~50 / ~250 / ~550 ms.
  EXPECT_NEAR(cloud, 40.0, 20.0);
  EXPECT_NEAR(isp, 50.0, 25.0);
  EXPECT_NEAR(broadband, 250.0, 100.0);
  EXPECT_NEAR(mobile, 550.0, 150.0);
}

TEST(Analyzer, MobileProvidersMostlySntp) {
  const ServerLog log = render(14);  // SU1
  const auto stats = LogAnalyzer::provider_owd_stats(log, 5);
  bool saw_mobile = false;
  for (const auto& ps : stats) {
    if (ps.category == ProviderCategory::kMobile) {
      saw_mobile = true;
      EXPECT_GT(ps.sntp_share, 0.9) << ps.provider_name;
    }
  }
  EXPECT_TRUE(saw_mobile);
}

TEST(Analyzer, MobileMinOwdSpreadIsWide) {
  // Fig 1's "linear trend": mobile clients' min OWDs spread near-uniform,
  // so the IQR is a large fraction of the median.
  const auto stats = LogAnalyzer::provider_owd_stats(render(0), 10);
  for (const auto& ps : stats) {
    if (ps.category != ProviderCategory::kMobile) continue;
    const double iqr = ps.min_owd_ms.p75 - ps.min_owd_ms.p25;
    EXPECT_GT(iqr / ps.min_owd_ms.median, 0.5) << ps.provider_name;
  }
}

}  // namespace
}  // namespace mntp::logs
