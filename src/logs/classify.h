// Client classification heuristics from §3.1.
//
// Two classifiers operate on a captured client:
//  * provider/category from the reverse-DNS hostname — "a simple process
//    that leverages keywords and provider names (e.g., mobile, cloud,
//    Amazon, Sprint, etc.) present in hostnames";
//  * protocol (SNTP vs NTP) from the request packet — SNTP requests set
//    every field to zero except the first octet (and transmit time),
//    while ntpd populates poll, precision and (after the first exchange)
//    the origin timestamp.
#pragma once

#include <optional>
#include <string_view>

#include "logs/spec.h"
#include "ntp/packet.h"

namespace mntp::logs {

/// Category inferred from hostname keywords; nullopt when no keyword
/// matches (unclassified clients are excluded from the provider plots,
/// as in the paper).
[[nodiscard]] std::optional<ProviderCategory> category_from_hostname(
    std::string_view hostname);

/// Provider index (into kPaperProviders) whose keyword appears in the
/// hostname; nullopt when none matches.
[[nodiscard]] std::optional<std::size_t> provider_from_hostname(
    std::string_view hostname);

/// Protocol classification of a client request packet.
enum class Protocol { kSntp, kNtp };

[[nodiscard]] Protocol classify_protocol(const ntp::NtpPacket& request);
}  // namespace mntp::logs
