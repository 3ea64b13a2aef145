// Published facts from the paper's NTP-server log study (§3.1) used to
// calibrate the fleet's client population (fleet::ClientFleet): the 19
// servers of Table 1 and the service-provider structure behind
// Figures 1–2.
//
// Server and provider names in the paper are anonymized (AG1, SP 22, …);
// we reuse those labels. Client/measurement counts are Table 1's: the
// fleet draws home servers in proportion to the client counts, and a
// rendered server log (fleet/server_log.h) draws request counts from the
// measurements-per-client ratio.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace mntp::logs {

enum class ProviderCategory : std::uint8_t {
  kCloud,      // cloud & hosting (SP 1-3): median min-OWD ~40 ms
  kIsp,        // Internet service providers (SP 4-9): ~50 ms
  kBroadband,  // broadband providers (SP 10-21): ~250 ms
  kMobile,     // mobile providers (SP 22-25): ~550 ms, high IQR
};

[[nodiscard]] constexpr std::string_view category_name(ProviderCategory c) {
  switch (c) {
    case ProviderCategory::kCloud: return "cloud";
    case ProviderCategory::kIsp: return "isp";
    case ProviderCategory::kBroadband: return "broadband";
    case ProviderCategory::kMobile: return "mobile";
  }
  return "?";
}

struct ServerSpec {
  std::string_view id;
  std::uint32_t unique_clients;  // Table 1
  std::uint8_t stratum;
  bool ipv6;                     // server supports v4/v6
  std::uint64_t total_measurements;  // Table 1
  /// ISP-internal servers (CI*, EN*) serve mostly full-NTP clients
  /// (routers, infrastructure); public servers serve mostly SNTP.
  bool isp_internal;
};

/// Table 1, verbatim.
inline constexpr std::array<ServerSpec, 19> kPaperServers{{
    {"AG1", 639'704, 2, false, 9'988'576, false},
    {"CI1", 606, 2, true, 1'480'571, true},
    {"CI2", 359, 2, true, 1'268'928, true},
    {"CI3", 335, 2, true, 812'104, true},
    {"CI4", 262, 2, true, 763'847, true},
    {"EN1", 228, 2, true, 411'253, true},
    {"EN2", 232, 2, true, 437'440, true},
    {"JW1", 12'769, 1, false, 354'530, false},
    {"JW2", 35'548, 1, false, 869'721, false},
    {"MW1", 2'746, 1, false, 197'900, false},
    {"MW2", 9'482'918, 2, false, 46'232'069, false},
    {"MW3", 1'141'163, 2, false, 10'948'402, false},
    {"MW4", 2'525'072, 2, false, 11'126'121, false},
    {"MI1", 1'078'308, 1, false, 63'907'095, false},
    {"SU1", 21'101, 1, true, 16'404'882, false},
    {"UI1", 36'559, 2, false, 18'426'282, false},
    {"UI2", 18'925, 2, false, 14'194'081, false},
    {"UI3", 177'957, 2, false, 9'254'843, false},
    {"PP1", 128'644, 2, true, 2'369'277, false},
}};

struct ProviderSpec {
  std::string_view name;     // anonymized label, "SP 1" … "SP 25"
  std::string_view keyword;  // hostname keyword the classifier keys on
  ProviderCategory category;
  /// Median of per-client minimum OWD, milliseconds.
  double min_owd_median_ms;
  /// Lognormal sigma of per-client minimum OWD around the median. Mobile
  /// providers instead use a wide uniform component (linear CDF).
  double min_owd_sigma;
  /// Fraction of this provider's clients speaking SNTP.
  double sntp_fraction;
  /// Relative share of a public server's client population.
  double client_weight;
};

/// The top-25 provider structure of Figures 1–2: categories, latency
/// medians (40/50/250/550 ms) and the ≥95% SNTP share of mobile
/// providers are the paper's; per-provider spreads interpolate within a
/// category.
inline constexpr std::array<ProviderSpec, 25> kPaperProviders{{
    // Cloud & hosting (SP 1-3).
    {"SP 1", "cloud", ProviderCategory::kCloud, 36.0, 0.45, 0.35, 4.0},
    {"SP 2", "amazon", ProviderCategory::kCloud, 40.0, 0.45, 0.35, 3.5},
    {"SP 3", "hosting", ProviderCategory::kCloud, 44.0, 0.50, 0.40, 3.0},
    // ISPs (SP 4-9).
    {"SP 4", "isp", ProviderCategory::kIsp, 46.0, 0.50, 0.60, 3.0},
    {"SP 5", "telecom", ProviderCategory::kIsp, 48.0, 0.50, 0.60, 2.8},
    {"SP 6", "net", ProviderCategory::kIsp, 50.0, 0.55, 0.65, 2.6},
    {"SP 7", "fiber", ProviderCategory::kIsp, 52.0, 0.55, 0.65, 2.4},
    {"SP 8", "comm", ProviderCategory::kIsp, 54.0, 0.55, 0.70, 2.2},
    {"SP 9", "online", ProviderCategory::kIsp, 56.0, 0.60, 0.70, 2.0},
    // Broadband (SP 10-21).
    {"SP 10", "dsl", ProviderCategory::kBroadband, 200.0, 0.55, 0.80, 2.0},
    {"SP 11", "cable", ProviderCategory::kBroadband, 215.0, 0.55, 0.80, 2.0},
    {"SP 12", "broadband", ProviderCategory::kBroadband, 230.0, 0.55, 0.82, 1.9},
    {"SP 13", "home", ProviderCategory::kBroadband, 240.0, 0.60, 0.82, 1.9},
    {"SP 14", "res", ProviderCategory::kBroadband, 250.0, 0.60, 0.84, 1.8},
    {"SP 15", "dyn", ProviderCategory::kBroadband, 255.0, 0.60, 0.84, 1.8},
    {"SP 16", "pool", ProviderCategory::kBroadband, 260.0, 0.60, 0.86, 1.7},
    {"SP 17", "cust", ProviderCategory::kBroadband, 270.0, 0.65, 0.86, 1.7},
    {"SP 18", "user", ProviderCategory::kBroadband, 280.0, 0.65, 0.88, 1.6},
    {"SP 19", "retail", ProviderCategory::kBroadband, 290.0, 0.65, 0.88, 1.6},
    {"SP 20", "wave", ProviderCategory::kBroadband, 300.0, 0.70, 0.90, 1.5},
    {"SP 21", "link", ProviderCategory::kBroadband, 310.0, 0.70, 0.90, 1.5},
    // Mobile (SP 22-25).
    {"SP 22", "mobile", ProviderCategory::kMobile, 530.0, 0.0, 0.97, 3.5},
    {"SP 23", "wireless", ProviderCategory::kMobile, 550.0, 0.0, 0.97, 3.2},
    {"SP 24", "cell", ProviderCategory::kMobile, 565.0, 0.0, 0.96, 2.9},
    {"SP 25", "lte", ProviderCategory::kMobile, 580.0, 0.0, 0.96, 2.6},
}};

}  // namespace mntp::logs
