// One server's capture of the fleet's client population (§3.1).
//
// Table 1 and Figures 1–2 analyse what 19 servers logged about one
// client population. server_log renders one server's log from the
// fleet's own rows: provider, speaker, unsynchronized flag and base OWD
// are the row's, and the renderer draws only what a capture adds — the
// hostname, the request packet, the day's request count and the OWD
// samples — from a per-client stream of the fleet seed. Rendering one
// server therefore gives the same log whether or not the other servers
// were rendered first, and the analysis (logs/analyze.h) reads the same
// population the fleet simulator runs.
#pragma once

#include <cstddef>

#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "logs/analyze.h"

namespace mntp::fleet {

/// Scale of the §3.1 population Table 1 and Figures 1–2 analyse: 1:20 of
/// Table 1's 15,303,436 summed unique clients. Much coarser (1:100)
/// leaves the ISP-internal servers and SU1's mobile providers too few
/// clients for Figure 2's shares.
inline constexpr double kSection31Scale = 1.0 / 20.0;

/// The §3.1 population at `scale` of Table 1's summed unique clients
/// (rounded), seed 1; every other field is FleetParams' default.
[[nodiscard]] FleetParams section31_params(double scale = kSection31Scale);

/// The log of paper server `server` (index into logs::kPaperServers):
/// one record per fleet row whose home server it is, in client-id order.
/// `params` must be the parameters `fleet` was built from. The request
/// count is heavy-tailed around Table 1's measurements per client; up to
/// 24 of the requests carry an OWD sample, the row's base OWD times
/// Pareto jitter, capped at `params.owd_cap_ms`. Every sample of an
/// unsynchronized row is invalid (negative).
[[nodiscard]] logs::ServerLog server_log(const ClientFleet& fleet,
                                         const FleetParams& params,
                                         std::size_t server);

}  // namespace mntp::fleet
