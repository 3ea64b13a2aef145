#include "fleet/report.h"

#include <array>
#include <fstream>

#include "core/json_writer.h"
#include "logs/spec.h"

namespace mntp::fleet {

namespace {

void write_owd_row(core::JsonWriter& w, const obs::HdrHistogram& h) {
  w.kv("count", h.count());
  w.key("p50_ms").value_fixed(h.quantile(0.50), 3);
  w.key("p90_ms").value_fixed(h.quantile(0.90), 3);
  w.key("p99_ms").value_fixed(h.quantile(0.99), 3);
  w.key("mean_ms").value_fixed(h.mean(), 3);
  w.key("min_ms").value_fixed(h.min(), 3);
  w.key("max_ms").value_fixed(h.max(), 3);
}

}  // namespace

std::string render_fleet_report(const FleetParams& params,
                                const FleetResult& result) {
  std::string out;
  core::JsonWriter w(out, 2);
  w.begin_object();
  w.kv("kind", "mntp_fleet_report");
  w.kv("schema_version", std::int64_t{3});

  w.key("params").begin_object();
  w.kv("clients", params.clients);
  w.key("duration_s").value_fixed(params.duration_s, 3);
  w.kv("shards", static_cast<std::uint64_t>(params.shards));
  w.kv("seed", params.seed);
  w.kv("kod_limit_per_slice", params.kod_limit_per_slice);
  w.key("cache_bucket_ms").value_fixed(params.cache_bucket_ms, 3);
  w.end_object();

  w.key("population").begin_object();
  w.kv("clients", result.clients);
  w.kv("sntp_clients", result.sntp_clients);
  w.kv("ntp_clients", result.ntp_clients);
  w.kv("wireless_clients", result.wireless_clients);
  w.kv("wired_clients", result.wired_clients);
  w.end_object();

  w.key("totals").begin_object();
  w.kv("queries", result.queries);
  w.kv("arrived", result.arrived);
  w.kv("dropped", result.dropped);
  w.kv("kod", result.kod);
  w.kv("cache_hits", result.cache_hits);
  w.kv("cache_misses", result.cache_misses);
  w.kv("owd_valid", result.owd.valid);
  w.kv("owd_invalid", result.owd.invalid);
  w.end_object();

  w.key("throughput").begin_object();
  w.kv("threads", static_cast<std::uint64_t>(result.threads));
  w.key("wall_s").value_fixed(result.wall_s, 6);
  w.key("qps").value_fixed(result.qps, 1);
  w.key("qps_per_core").value_fixed(result.qps_per_core, 1);
  w.end_object();

  w.key("servers").begin_array();
  for (std::size_t s = 0; s < result.server_requests.size(); ++s) {
    w.begin_object();
    w.kv("id", s < logs::kPaperServers.size()
                   ? logs::kPaperServers[s].id
                   : std::string_view("?"));
    w.kv("requests", result.server_requests[s]);
    w.end_object();
  }
  w.end_array();

  w.key("owd").begin_array();
  for (Speaker sp : {Speaker::kNtp, Speaker::kSntp}) {
    for (Population pop : {Population::kWired, Population::kWireless}) {
      w.begin_object();
      w.kv("speaker", speaker_name(sp));
      w.kv("population", population_name(pop));
      write_owd_row(w, result.owd.by_class[static_cast<std::size_t>(sp)]
                                          [static_cast<std::size_t>(pop)]);
      w.end_object();
    }
  }
  w.end_array();

  w.key("category_owd").begin_array();
  constexpr std::array<logs::ProviderCategory, 4> kCategories{
      logs::ProviderCategory::kCloud, logs::ProviderCategory::kIsp,
      logs::ProviderCategory::kBroadband, logs::ProviderCategory::kMobile};
  for (logs::ProviderCategory cat : kCategories) {
    w.begin_object();
    w.kv("category", logs::category_name(cat));
    write_owd_row(w, result.owd.by_category[static_cast<std::size_t>(cat)]);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out += '\n';
  return out;
}

bool write_fleet_report(const std::string& path, const FleetParams& params,
                        const FleetResult& result) {
  std::ofstream out(path);
  if (!out) return false;
  out << render_fleet_report(params, result);
  // A full device only reports on the flush of the last buffered bytes.
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace mntp::fleet
