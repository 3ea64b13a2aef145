#include "mntp/tuner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "core/format.h"
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

namespace {

/// The swept values a family's configurations differ in, and the slot
/// of the configuration's result.
struct Config {
  core::Duration warmup_period;
  core::Duration reset_period;
  std::size_t slot = 0;
};

/// Algorithm 1 replayed over a trace for a family of configurations that
/// share every parameter but the warm-up and reset periods. The family
/// walks the trace on one engine. Only the reset check, the start phase
/// after a reset and the warm-up check read those two periods, so the
/// engine is copied only on a round where configurations decide one of
/// them differently; the copy takes the configurations of one side, and
/// the two branches never meet again. With the waits shared, the next
/// wait depends on the phase alone and never splits a branch.
///
/// A copy waits until the branch it left has run to the end of the
/// trace. The branch that runs on is chosen so that the copies waiting
/// are few and small: the restarting sides of a reset wait (a new cycle
/// holds no records yet), and at the end of a warm-up the side still in
/// warm-up waits. Records no round can change any more are folded into
/// per-branch sums as the replay goes (MntpEngine::retire_final_records),
/// so a copy carries at most the current cycle.
class Replay {
 public:
  Replay(const Trace& trace, const MntpParams& family,
         std::span<Config> configs, std::span<EmulationResult> results,
         bool keep_offsets)
      : trace_(trace),
        family_(family),
        configs_(configs),
        results_(results),
        keep_offsets_(keep_offsets),
        tracer_(obs::Telemetry::global().query_tracer()),
        counters_(obs::Telemetry::global().metrics()) {}

  /// Replays every configuration to the end of the trace and writes its
  /// result to its slot.
  void run();

 private:
  /// One engine and the configurations that share it: configs_[begin,
  /// end). Branches split the range, so they never share a
  /// configuration.
  struct Branch {
    MntpEngine engine;
    std::size_t begin = 0;
    std::size_t end = 0;
    /// The shortest reset and warm-up periods in the range: neither check
    /// can split the branch before they have elapsed.
    core::Duration min_reset_period{};
    core::Duration min_warmup_period{};
    /// The record the branch resumes at.
    std::size_t record = 0;
    /// Next instant at which the algorithm wants to act.
    double next_action_s = 0.0;
    std::size_t requests = 0;
    /// Records retired from the engine: the running sum of the squared
    /// reported offsets (ms), in record order, as core::rmse sums them.
    double sum_sq_ms = 0.0;
    std::size_t reported = 0;
    std::size_t rejected = 0;
    std::vector<double> reported_ms{};  // kept only for emulate()
  };

  /// Moves the configurations in configs_[begin, end) for which `pred`
  /// holds to the front; returns the end of that prefix.
  template <class Pred>
  std::size_t partition(std::size_t begin, std::size_t end, Pred pred) {
    const auto first = configs_.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = configs_.begin() + static_cast<std::ptrdiff_t>(end);
    return begin +
           static_cast<std::size_t>(std::partition(first, last, pred) - first);
  }
  void set_range(Branch& b, std::size_t begin, std::size_t end) const;
  /// Queues `side`, which has finished round i, to resume after it.
  void split_off(Branch side, std::size_t i);

  void step(Branch& b, std::size_t i);
  void close_round(Branch& b, std::size_t i, std::span<const double> offsets,
                   std::optional<Phase> restart, const MntpEngine::Wake& w);
  void advance(Branch& b, std::size_t i) const;
  void retire(Branch& b, const OffsetRecord& r) const;
  void finish(Branch& b);

  [[nodiscard]] core::TimePoint at(std::size_t i) const {
    return core::TimePoint::epoch() +
           core::Duration::from_seconds(trace_.records[i].t_s);
  }
  [[nodiscard]] net::WirelessHints hints(std::size_t i) const {
    const TraceRecord& r = trace_.records[i];
    return {at(i), core::Dbm{r.rssi_dbm}, core::Dbm{r.noise_dbm}};
  }

  const Trace& trace_;
  const MntpParams& family_;
  std::span<Config> configs_;
  std::span<EmulationResult> results_;
  bool keep_offsets_;
  obs::QueryTracer& tracer_;
  EngineCounters counters_;
  /// Branches split off and waiting; each resumes at its `record`.
  std::vector<Branch> pending_;
};

void Replay::set_range(Branch& b, std::size_t begin, std::size_t end) const {
  b.begin = begin;
  b.end = end;
  b.min_reset_period = configs_[begin].reset_period;
  b.min_warmup_period = configs_[begin].warmup_period;
  for (std::size_t c = begin + 1; c < end; ++c) {
    b.min_reset_period = std::min(b.min_reset_period, configs_[c].reset_period);
    b.min_warmup_period =
        std::min(b.min_warmup_period, configs_[c].warmup_period);
  }
}

void Replay::split_off(Branch side, std::size_t i) {
  side.record = i + 1;
  pending_.push_back(std::move(side));
}

void Replay::run() {
  // The start phase reads the warm-up period: configurations without one
  // (head-to-head) start in the regular phase, the rest in warm-up.
  const std::size_t mid =
      partition(0, configs_.size(), [](const Config& c) {
        return MntpEngine::start_phase(c.warmup_period) == Phase::kRegular;
      });
  for (const auto& [begin, end] : {std::pair{std::size_t{0}, mid},
                                   std::pair{mid, configs_.size()}}) {
    if (begin == end) continue;
    MntpParams params = family_;
    params.warmup_period = configs_[begin].warmup_period;
    Branch root{.engine = MntpEngine(params, core::TimePoint::epoch())};
    set_range(root, begin, end);
    pending_.push_back(std::move(root));
  }
  while (!pending_.empty()) {
    Branch b = std::move(pending_.back());
    pending_.pop_back();
    for (std::size_t i = b.record; i < trace_.records.size(); ++i) {
      if (trace_.records[i].t_s < b.next_action_s) continue;  // still waiting
      step(b, i);
    }
    finish(b);
  }
}

void Replay::step(Branch& b, std::size_t i) {
  const TraceRecord& rec = trace_.records[i];
  const core::TimePoint t = at(i);
  const MntpEngine::Wake w = b.engine.wake(t, hints(i));
  if (!w.emits()) {
    // trace_wake() is out of line, and a replay step is too cheap to
    // pay for the call with the tracer off.
    if (tracer_.enabled()) {
      trace_wake(tracer_, t, hints(i), w, b.engine.phase());
    }
    b.next_action_s = rec.t_s + w.recheck_after.to_seconds();
    return;
  }

  // Emit: consume up to w.sources offsets from the record. The round is
  // billed in the phase it was emitted in, before the reset check, as the
  // live client bills it.
  b.requests += w.sources;
  const std::span<const double> offsets = std::span(rec.offsets_s).first(
      std::min(w.sources, rec.offsets_s.size()));

  // The reset check: each configuration restarts in warm-up, or
  // restarts in the regular phase, or goes on in its cycle. Every side
  // but the last leaves in a copy of the engine taken before the round;
  // the restarting sides leave, so the copies that wait are small.
  std::size_t due = b.begin;
  if (b.engine.reset_due(t, b.min_reset_period)) {
    due = partition(b.begin, b.end, [&](const Config& c) {
      return b.engine.reset_due(t, c.reset_period);
    });
  }
  const std::size_t in_warmup =
      partition(b.begin, due, [](const Config& c) {
        return MntpEngine::start_phase(c.warmup_period) == Phase::kWarmup;
      });
  const std::array<std::pair<std::size_t, std::optional<Phase>>, 3> sides{{
      {in_warmup, Phase::kWarmup},
      {due, Phase::kRegular},
      {b.end, std::nullopt},
  }};
  std::size_t begin = b.begin;
  for (const auto& [end, restart] : sides) {
    if (begin == end) continue;
    if (end == b.end) {
      if (begin != b.begin) set_range(b, begin, end);
      close_round(b, i, offsets, restart, w);
      return;
    }
    Branch side = b;
    set_range(side, begin, end);
    close_round(side, i, offsets, restart, w);
    split_off(std::move(side), i);
    begin = end;
  }
}

void Replay::close_round(Branch& b, std::size_t i,
                         std::span<const double> offsets,
                         std::optional<Phase> restart,
                         const MntpEngine::Wake& w) {
  const core::TimePoint t = at(i);
  // With tracing on, each judged round is one query, however many
  // configurations share it.
  const obs::QueryId id =
      tracer_.enabled() ? trace_wake(tracer_, t, hints(i), w, b.engine.phase())
                        : 0;
  std::optional<obs::ActiveQueryScope> scope;
  if (id != 0) scope.emplace(tracer_, id);
  const MntpEngine::RoundResult rr = b.engine.judge(t, offsets, restart);

  // The warm-up check: configurations whose warm-up goes on leave in a
  // copy of the judged engine, and wait while the ones whose warm-up
  // ends here run on; so one warm-up side per cycle waits, not one
  // finished side per warm-up period.
  if (b.engine.warmup_complete(t, b.min_warmup_period)) {
    const std::size_t ends = partition(b.begin, b.end, [&](const Config& c) {
      return b.engine.warmup_complete(t, c.warmup_period);
    });
    if (ends != b.end) {
      Branch warmup = b;
      set_range(warmup, ends, b.end);
      set_range(b, b.begin, ends);
      advance(warmup, i);
      split_off(std::move(warmup), i);
    }
    b.engine.end_warmup(t);
  }
  finish_round_trace(tracer_, id, t, rr, offsets.size());
  advance(b, i);
}

void Replay::advance(Branch& b, std::size_t i) const {
  b.next_action_s =
      trace_.records[i].t_s +
      b.engine.next_wait(family_.warmup_wait_time, family_.regular_wait_time)
          .to_seconds();
  b.engine.retire_final_records(
      [&](const OffsetRecord& r) { retire(b, r); });
}

void Replay::retire(Branch& b, const OffsetRecord& r) const {
  if (!r.reported()) {
    ++b.rejected;
    return;
  }
  const double ms = r.offset_s * 1e3;
  b.sum_sq_ms += ms * ms;
  ++b.reported;
  if (keep_offsets_) b.reported_ms.push_back(ms);
}

void Replay::finish(Branch& b) {
  // At the end of the trace every record is final.
  for (const OffsetRecord& r : b.engine.records()) retire(b, r);
  EmulationResult result;
  result.reported_offsets_ms = std::move(b.reported_ms);
  result.rmse_ms =
      b.reported == 0
          ? 0.0
          : std::sqrt(b.sum_sq_ms / static_cast<double>(b.reported));
  result.requests = b.requests;
  result.deferrals = b.engine.deferrals();
  result.rejections = b.rejected;
  result.resets = b.engine.resets();
  result.forced_emissions = b.engine.forced_emissions();
  result.rounds = b.engine.rounds();
  for (std::size_t k = 0; k < kSampleOutcomes; ++k) {
    result.outcomes[k] = b.engine.outcome_count(static_cast<SampleOutcome>(k));
  }
  for (std::size_t c = b.begin; c < b.end; ++c) {
    results_[configs_[c].slot] = result;
    // Each configuration's registry totals, published once rather than
    // per round.
    counters_.add_totals(b.engine);
  }
}

}  // namespace

EmulationResult emulate(const Trace& trace, const MntpParams& params) {
  EmulationResult result;
  if (trace.empty()) return result;
  Config config{.warmup_period = params.warmup_period,
                .reset_period = params.reset_period};
  Replay(trace, params, std::span(&config, 1), std::span(&result, 1),
         /*keep_offsets=*/true)
      .run();
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
  obs::ProfileScope profile(obs::spans::kTunerSearch);
  obs::ShardedCounter* scored = obs::Telemetry::global().metrics().counter(
      obs::metric_names::kTunerConfigsScored);

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

  // Score one family per task: the configurations that share the two
  // waits replay together (see Replay). Each configuration's result goes
  // to its own slot, so the output is bit-identical to a serial loop for
  // any thread count; the counters are per-thread shards summed at read
  // (obs/metrics.h), so every total is exact once the pool has joined.
  const std::size_t warmups = space.warmup_periods.size();
  const std::size_t waits = space.warmup_wait_times.size();
  const std::size_t regular_waits = space.regular_wait_times.size();
  const std::size_t resets = space.reset_periods.size();
  const auto score = [&](std::size_t family) {
    obs::ProfileScope family_profile(obs::spans::kTunerScoreFamily);
    const std::size_t wwt = family / regular_waits;
    const std::size_t rwt = family % regular_waits;
    // The family's configurations, warm-up period outer; `slot` indexes
    // `results`.
    std::vector<Config> configs;
    configs.reserve(warmups * resets);
    for (std::size_t wp = 0; wp < warmups; ++wp) {
      for (std::size_t rp = 0; rp < resets; ++rp) {
        configs.push_back(Config{.warmup_period = space.warmup_periods[wp],
                                 .reset_period = space.reset_periods[rp],
                                 .slot = configs.size()});
      }
    }
    std::vector<EmulationResult> results(configs.size());
    if (!trace.empty()) {
      MntpParams params = space.base;
      params.warmup_wait_time = space.warmup_wait_times[wwt];
      params.regular_wait_time = space.regular_wait_times[rwt];
      Replay(trace, params, configs, results, /*keep_offsets=*/false).run();
    }
    for (std::size_t wp = 0; wp < warmups; ++wp) {
      for (std::size_t rp = 0; rp < resets; ++rp) {
        const EmulationResult& r = results[wp * resets + rp];
        SearchEntry& entry = out[((wp * waits + wwt) * regular_waits + rwt) *
                                     resets +
                                 rp];
        entry.rmse_ms = r.rmse_ms;
        entry.requests = r.requests;
      }
    }
    scored->inc(configs.size());
  };
  const std::size_t families = waits * regular_waits;
  if (options.threads <= 1) {
    for (std::size_t f = 0; f < families; ++f) score(f);
  } else {
    core::ThreadPool pool(options.threads);
    pool.parallel_for(0, families, score);
  }
  return out;
}

}  // namespace mntp::protocol::tuner
