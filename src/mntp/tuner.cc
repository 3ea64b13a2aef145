#include "mntp/tuner.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>

#include "core/format.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"

namespace mntp::protocol::tuner {

Logger::Logger(sim::Simulation& sim, sim::DisciplinedClock& clock,
               ntp::ServerPool& pool, net::WirelessChannel& channel,
               LoggerParams params, core::Rng rng)
    : sim_(sim),
      pool_(pool),
      channel_(channel),
      params_(params),
      rng_(std::move(rng)),
      engine_(sim, clock),
      process_(sim, params.interval, [this] { capture_once(); }) {}

Logger::~Logger() { stop(); }

void Logger::start() {
  start_ = sim_.now();
  started_ = true;
  alive_ = std::make_shared<bool>(true);
  process_.start();
}

void Logger::stop() {
  process_.stop();
  // Disarm in-flight query callbacks: they hold the flag (not the
  // logger), so a completion after stop() or destruction is a no-op
  // rather than a write into freed memory.
  if (alive_) *alive_ = false;
  started_ = false;
}

void Logger::capture_once() {
  const core::TimePoint now = sim_.now();
  const net::WirelessHints hints = channel_.observe_hints(now);

  // Query `sources` distinct pool members in parallel, unconditionally —
  // the logger captures everything; gating decisions belong to the
  // emulator replaying the trace. Distinct indices come from a partial
  // Fisher–Yates shuffle: exactly `want` draws, uniform without
  // replacement, no rejection-sampling spin on small pools.
  const std::size_t n = pool_.size();
  const std::size_t want = std::min(params_.sources, n);
  std::vector<std::size_t> chosen(n);
  std::iota(chosen.begin(), chosen.end(), std::size_t{0});
  for (std::size_t i = 0; i < want; ++i) {
    std::swap(chosen[i], chosen[i + rng_.index(n - i)]);
  }
  chosen.resize(want);

  auto record = std::make_shared<TraceRecord>();
  record->t_s = (now - start_).to_seconds();
  record->rssi_dbm = hints.rssi.value();
  record->noise_dbm = hints.noise.value();

  auto outstanding = std::make_shared<std::size_t>(chosen.size());
  for (const std::size_t idx : chosen) {
    const ntp::ServerEndpoint ep =
        pool_.endpoint(idx, &channel_.uplink(), &channel_.downlink());
    engine_.query(
        ep, params_.query_options,
        [this, record, outstanding,
         alive = alive_](core::Result<ntp::SntpSample> r) {
          if (!*alive) return;  // logger stopped or destroyed mid-flight
          if (r.ok()) {
            record->offsets_s.push_back(r.value().offset.to_seconds());
          }
          if (--*outstanding == 0) {
            // Rounds complete out of order when an exchange
            // outlives the capture interval; keep the trace
            // sorted by emission time (records are nearly
            // sorted, so this back-insertion is cheap).
            auto& recs = trace_.records;
            auto it = recs.end();
            while (it != recs.begin() && std::prev(it)->t_s > record->t_s) {
              --it;
            }
            recs.insert(it, std::move(*record));
          }
        });
  }
}

EmulationResult emulate(const Trace& trace, const MntpParams& params) {
  EmulationResult result;
  if (trace.empty()) return result;

  MntpEngine engine(params, core::TimePoint::epoch());
  // Next instant at which the algorithm wants to act; starts immediately.
  double next_action_s = 0.0;
  // One round's offsets, reused round to round.
  std::vector<double> offsets;

  for (const TraceRecord& rec : trace.records) {
    if (rec.t_s < next_action_s) continue;  // still waiting

    const core::TimePoint t =
        core::TimePoint::epoch() + core::Duration::from_seconds(rec.t_s);
    const net::WirelessHints hints{
        .when = t,
        .rssi = core::Dbm{rec.rssi_dbm},
        .noise = core::Dbm{rec.noise_dbm},
    };
    if (!engine.gate(hints)) {
      engine.note_deferral(t);
      next_action_s = rec.t_s + params.hint_recheck_interval.to_seconds();
      continue;
    }

    // Emit: consume up to sources_to_query() offsets from the record.
    const std::size_t want = engine.sources_to_query();
    offsets.assign(
        rec.offsets_s.begin(),
        rec.offsets_s.begin() +
            static_cast<std::ptrdiff_t>(std::min(want, rec.offsets_s.size())));
    result.requests += want;
    const MntpEngine::RoundResult rr = engine.on_round(t, offsets);
    if (rr.reset_occurred) ++result.resets;
    next_action_s = rec.t_s + engine.next_wait().to_seconds();
  }

  result.reported_offsets_ms = engine.accepted_offsets_ms();
  result.rmse_ms = core::rmse(result.reported_offsets_ms, 0.0);
  result.deferrals = engine.deferrals();
  result.rejections = engine.rejected_offsets_ms().size();
  result.rounds = engine.rounds();
  for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
    result.outcomes[i] = engine.outcome_count(static_cast<SampleOutcome>(i));
  }
  // The replay's registry totals, published once rather than per round.
  EngineCounters(obs::Telemetry::global().metrics()).add_totals(engine);
  return result;
}

std::string SearchEntry::to_string() const {
  return core::strformat(
      "warmup=%.1fmin wwait=%.3fmin rwait=%.1fmin reset=%.0fmin "
      "rmse=%.2fms requests=%zu",
      params.warmup_period.to_seconds() / 60.0,
      params.warmup_wait_time.to_seconds() / 60.0,
      params.regular_wait_time.to_seconds() / 60.0,
      params.reset_period.to_seconds() / 60.0, rmse_ms, requests);
}

std::vector<SearchEntry> search(const Trace& trace, const SearchSpace& space,
                                const SearchOptions& options) {
  obs::Telemetry& telemetry = obs::Telemetry::global();
  obs::ProfileScope profile(obs::spans::kTunerSearch);
  obs::ShardedCounter* scored =
      telemetry.metrics().counter(obs::metric_names::kTunerConfigsScored);

  // Flatten the 4-deep cartesian product into an enumerated config
  // vector — warmup_period outermost, reset_period innermost, matching
  // the SearchSpace field order. Enumeration order IS the output order.
  std::vector<SearchEntry> out;
  out.reserve(space.warmup_periods.size() * space.warmup_wait_times.size() *
              space.regular_wait_times.size() * space.reset_periods.size());
  for (const core::Duration wp : space.warmup_periods) {
    for (const core::Duration wwt : space.warmup_wait_times) {
      for (const core::Duration rwt : space.regular_wait_times) {
        for (const core::Duration rp : space.reset_periods) {
          SearchEntry entry;
          entry.params = space.base;
          entry.params.warmup_period = wp;
          entry.params.warmup_wait_time = wwt;
          entry.params.regular_wait_time = rwt;
          entry.params.reset_period = rp;
          out.push_back(std::move(entry));
        }
      }
    }
  }

  // Score. emulate() is pure and each worker writes only slot i, so the
  // result is bit-identical to the serial loop for any thread count; the
  // counters are per-thread shards summed at read (obs/metrics.h), so
  // every total is exact once the pool has joined.
  const auto score = [&](std::size_t i) {
    // Span emitted from whichever thread scores config i — the profiler
    // aggregates across threads; records carry the worker's thread id.
    obs::ProfileScope config_profile(obs::spans::kTunerScoreConfig);
    const EmulationResult r = emulate(trace, out[i].params);
    out[i].rmse_ms = r.rmse_ms;
    out[i].requests = r.requests;
    scored->inc();
  };
  if (options.threads <= 1) {
    for (std::size_t i = 0; i < out.size(); ++i) score(i);
  } else {
    core::ThreadPool pool(options.threads);
    pool.parallel_for(0, out.size(), score);
  }

  // Emit per-config events AFTER scoring, in enumeration order, from
  // this thread — the event stream stays deterministic under any thread
  // count instead of interleaving in scheduler order.
  if (telemetry.tracing()) {
    // Grid search is trace-driven and has no simulated clock of its own;
    // stamp with the trace's end time.
    const core::TimePoint t =
        core::TimePoint::epoch() +
        core::Duration::from_seconds(trace.empty() ? 0.0
                                                   : trace.records.back().t_s);
    for (const SearchEntry& entry : out) {
      telemetry.event(
          t, obs::categories::kTuner, "config_scored",
          {{"config", entry.to_string()},
           {"rmse_ms", entry.rmse_ms},
           {"requests", static_cast<std::int64_t>(entry.requests)}});
    }
  }
  return out;
}

std::vector<SearchEntry> search(const Trace& trace, const SearchSpace& space) {
  return search(trace, space, SearchOptions{});
}

}  // namespace mntp::protocol::tuner
