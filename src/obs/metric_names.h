// Canonical metric and profiler-span name constants.
//
// A metric series is keyed by its name *string*: a typo at one call site
// does not fail to compile, it silently creates a second series that
// dashboards and the schema checker then miss. Every name shared between
// an emitter and a consumer (report schema checks, mntp-inspect tables,
// tests) therefore lives here, and call sites reference the constant.
//
// Naming convention: `<layer>.<component>.<quantity>` for metrics
// (layer prefixes sim./net./ntp./mntp./tuner. are what the CTest schema
// check asserts per-layer coverage against); `<layer>.<scope>` for
// profiler spans.
#pragma once

namespace mntp::obs {

/// Metric (counter/gauge/histogram) names.
namespace metric_names {
// sim: event kernel
inline constexpr const char kSimEventsDispatched[] = "sim.events_dispatched";
inline constexpr const char kSimQueueDepth[] = "sim.queue_depth";

// net: wireless last hop, cross traffic, cellular
inline constexpr const char kNetWifiTx[] = "net.wifi.tx";
inline constexpr const char kNetWifiDrop[] = "net.wifi.drop";
inline constexpr const char kNetWifiDelayMs[] = "net.wifi.delay_ms";
inline constexpr const char kNetWifiBadStateTransitions[] =
    "net.wifi.bad_state_transitions";
inline constexpr const char kNetXtrafficDownloads[] = "net.xtraffic.downloads";
inline constexpr const char kNetXtrafficUtilization[] =
    "net.xtraffic.utilization";
inline constexpr const char kNetCellTx[] = "net.cell.tx";
inline constexpr const char kNetCellDrop[] = "net.cell.drop";
inline constexpr const char kNetCellDelayMs[] = "net.cell.delay_ms";
inline constexpr const char kNetCellCongestionEpisodes[] =
    "net.cell.congestion_episodes";

// ntp: query engine and clock filter
inline constexpr const char kNtpQueryOwdMs[] = "ntp.query.owd_ms";
inline constexpr const char kNtpServerRequests[] = "ntp.server.requests";
inline constexpr const char kNtpQuerySent[] = "ntp.query.sent";
inline constexpr const char kNtpQueryOk[] = "ntp.query.ok";
inline constexpr const char kNtpQueryTimeout[] = "ntp.query.timeout";
inline constexpr const char kNtpQueryError[] = "ntp.query.error";
inline constexpr const char kNtpQueryRttMs[] = "ntp.query.rtt_ms";
inline constexpr const char kNtpFilterSamples[] = "ntp.filter.samples";
inline constexpr const char kNtpFilterSuppressed[] = "ntp.filter.suppressed";

// mntp: engine and client
inline constexpr const char kMntpSample[] = "mntp.sample";
inline constexpr const char kMntpRounds[] = "mntp.rounds";
inline constexpr const char kMntpDeferrals[] = "mntp.deferrals";
inline constexpr const char kMntpResets[] = "mntp.resets";
inline constexpr const char kMntpClientRequests[] = "mntp.client.requests";
inline constexpr const char kMntpClientForcedEmissions[] =
    "mntp.client.forced_emissions";
inline constexpr const char kMntpClientClockSteps[] =
    "mntp.client.clock_steps";

// tuner
inline constexpr const char kTunerConfigsScored[] = "tuner.configs_scored";

// fleet: the SoA client-population simulator (src/fleet/). Counters are
// ShardedCounters bumped from worker threads; the OWD families are
// ShardedHdrHistograms labelled by (speaker, population) and by provider
// category respectively — the aggregates behind the §3.1-style tables
// fleet_qps prints and the mntp_fleet_report artifact embeds.
inline constexpr const char kFleetClientQueries[] = "fleet.client.queries";
inline constexpr const char kFleetClientDropped[] = "fleet.client.dropped";
inline constexpr const char kFleetServerRequests[] = "fleet.server.requests";
inline constexpr const char kFleetServerKod[] = "fleet.server.kod";
inline constexpr const char kFleetServerBatches[] = "fleet.server.batches";
inline constexpr const char kFleetServerCacheHits[] =
    "fleet.server.cache_hits";
inline constexpr const char kFleetServerCacheMisses[] =
    "fleet.server.cache_misses";
inline constexpr const char kFleetOwdInvalid[] = "fleet.owd.invalid";
inline constexpr const char kFleetOwdMs[] = "fleet.owd_ms";
inline constexpr const char kFleetCategoryOwdMs[] = "fleet.category_owd_ms";

// obs: the observability layer metering itself. The query-trace family
// reconciles the exported trace artifact against what was minted
// (kept + sampled_out + dropped == minted); the self family answers
// "what does telemetry cost" — artifact bytes on disk, streaming-sink
// flush count, and the wall time of the registry merge at snapshot.
// Exported by BenchTelemetry::finalize under --obs-self (opt-in so
// default artifacts stay byte-stable across releases).
inline constexpr const char kObsQueryTraceKept[] = "obs.query_trace.kept";
inline constexpr const char kObsQueryTraceSampledOut[] =
    "obs.query_trace.sampled_out";
inline constexpr const char kObsQueryTraceDropped[] =
    "obs.query_trace.dropped";
inline constexpr const char kObsSelfBytesWritten[] = "obs.self.bytes_written";
inline constexpr const char kObsSelfStreamFlushes[] =
    "obs.self.stream_flushes";
inline constexpr const char kObsSelfMergeWallUs[] = "obs.self.merge_wall_us";

// timeline-only series (obs/timeseries.h probes; these appear in the
// --timeline-out artifact, not the run report)
inline constexpr const char kTsMntpOffsetMs[] = "mntp.offset_ms";
inline constexpr const char kTsMntpDriftPpm[] = "mntp.drift_ppm";
inline constexpr const char kTsMntpGateState[] = "mntp.gate_state";
inline constexpr const char kTsMntpDeferrals[] = "mntp.deferrals";
inline constexpr const char kTsNtpOwdMs[] = "ntp.owd_ms";
inline constexpr const char kTsSimQueueDepth[] = "sim.queue_depth";
inline constexpr const char kTsNetDelayMs[] = "net.delay_ms";
inline constexpr const char kTsNetUtilization[] = "net.utilization";
inline constexpr const char kTsDeviceEnergyMj[] = "device.energy_mj";
inline constexpr const char kTsDeviceRadioOnS[] = "device.radio_on_s";
inline constexpr const char kTsNtpServerRequests[] = "ntp.server.requests";
}  // namespace metric_names

/// Profiler span names (obs/profiler.h).
namespace spans {
inline constexpr const char kSimRun[] = "sim.run";
inline constexpr const char kSimRunUntil[] = "sim.run_until";
inline constexpr const char kEngineRound[] = "mntp.engine.round";
inline constexpr const char kTunerSearch[] = "tuner.search";
inline constexpr const char kTunerScoreConfig[] = "tuner.score_config";
inline constexpr const char kLogsGenerate[] = "logs.generate";
inline constexpr const char kLogsClassify[] = "logs.classify";
}  // namespace spans

}  // namespace mntp::obs
