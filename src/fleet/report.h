// Fleet report artifact: kind "mntp_fleet_report", schema_version 2.
//
// One whole-file JSON document per fleet run, written by
// bench/fleet_qps.cc under --fleet-out and validated by
// `mntp-inspect validate`. It carries the
// §3.1-style aggregates (per-server request totals a la Table 1,
// per-category and per-(speaker, population) OWD quantiles a la
// Figures 1-2), the conservation tallies the validator cross-checks,
// and the throughput block the bench gate reads.
#pragma once

#include <string>

#include "fleet/simulator.h"

namespace mntp::fleet {

/// Serialize the report document (pretty-printed, stable key order).
[[nodiscard]] std::string render_fleet_report(const FleetParams& params,
                                              const FleetResult& result);

/// Write the report to `path`. Returns false on I/O failure.
bool write_fleet_report(const std::string& path, const FleetParams& params,
                        const FleetResult& result);

}  // namespace mntp::fleet
