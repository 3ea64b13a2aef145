// Query-scoped causal tracing ("flight recorder").
//
// Metrics say HOW MANY samples were rejected; spans say HOW LONG a round
// took; this layer answers WHY a particular exchange ended the way it
// did. Every sync query (an MNTP/NTP round, or one client↔server
// exchange within it) is assigned a monotonically increasing `QueryId`
// minted at the client, and every hop and accept/defer/reject decision
// along its path appends a stage record — simulation timestamp, stage
// name, typed reason code (obs/reason_codes.h), and numeric payload
// fields — to a bounded per-query store owned by the Telemetry context.
//
// Lifecycle of a trace:
//
//   id = tracer.begin(t, "round")            // mint; 0 when disabled
//   tracer.stage(id, t, "gate", kChannelDefer, {{"rssi", -78.0}, ...})
//   ...
//   tracer.finish(id, t, kTrendOutlier, {{"residual_ms", ...}})
//
// finish() appends a terminal "verdict" stage and latches the trace:
// later stage() calls for that id are dropped. That makes straggler
// events harmless — a reply arriving after its exchange already timed
// out records nothing, matching what a real client could observe.
//
// Threading the id: call sites that hold the id pass it explicitly
// (transport lambdas capture it). Decision emitters buried under stable
// APIs (clock_filter, false_ticker, drift_filter, selection, channel
// models) instead read the *ambient* query — a thread_local (tracer,
// id) pair installed by the owner via ActiveScope around the code that
// runs on the query's behalf. With no ambient set and the tracer
// disabled, an instrumented decision point costs one thread-local read
// and a branch.
//
// Determinism & overhead: the tracer only OBSERVES — it never consumes
// RNG draws, never schedules events, and is off by default behind the
// same cached-atomic guard discipline as the profiler, so untraced runs
// are bit-identical to a build without the instrumentation (pinned by
// mntp_engine_test and BM_QueryTraceDisabled). The store is bounded
// (max_queries / max_stages_per_query); overflow increments dropped
// counters instead of growing without bound. All mutation serializes on
// one mutex — safe under the parallel tuner, where each worker's rounds
// interleave arbitrarily but each stage append is atomic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/time.h"
#include "obs/reason_codes.h"

namespace mntp::obs {

class MetricsRegistry;

/// Stage payload values keep JSON's scalar types; int64 covers counts
/// and ns.
using FieldValue = std::variant<std::int64_t, double, std::string, bool>;

struct Field {
  std::string key;
  FieldValue value;
};

/// Monotonic per-tracer query identifier; 0 is "no query" (disabled).
using QueryId = std::uint64_t;

/// One hop or decision in the life of a query.
struct QueryStage {
  core::TimePoint t;        ///< simulation time of the record
  std::string stage;        ///< "request", "hop", "gate", "verdict", ...
  Reason reason = Reason::kNone;
  std::vector<Field> fields;
};

/// The full recorded life of one query.
struct QueryTrace {
  QueryId id = 0;
  QueryId parent = 0;  ///< round id for exchanges; 0 for roots
  std::string kind;    ///< "round" or "exchange"
  core::TimePoint started;
  std::vector<QueryStage> stages;
  bool finished = false;

  /// The terminal reason (from the "verdict" stage), or kNone.
  [[nodiscard]] Reason verdict() const {
    return finished && !stages.empty() ? stages.back().reason : Reason::kNone;
  }
};

class StreamingQueryTraceSink;

/// Append one {"type":"query",...} JSONL line body (no trailing newline)
/// for `trace` — the per-trace serialization shared by the batch
/// exporter (to_jsonl) and the streaming sink (obs/streaming.h).
void append_query_trace_json(std::string& out, const QueryTrace& trace);

class QueryTracer {
 public:
  struct Limits {
    std::size_t max_queries = 1 << 16;
    std::size_t max_stages_per_query = 128;
  };

  /// Deterministic trace sampling. First-N-wins (the pre-sampling
  /// behaviour, and still the backstop via Limits) keeps whatever
  /// happened to be minted early — at fleet scale that is the warm-up
  /// transient, not a representative sample. The gate instead hashes the
  /// query id: a trace is a KEEP candidate iff
  ///
  ///   splitmix64(gate_seed + id) % sample_one_in_n == 0,
  ///
  /// with gate_seed = core::derive_stream_seed(seed, 0). The kept id set
  /// is a pure function of (seed, n, ids minted) — bit-identical across
  /// thread counts, schedulings and re-runs, which is what the
  /// determinism tests pin. `reservoir` additionally caps the kept set
  /// at a fixed size using a bottom-k rank sketch: every candidate gets
  /// rank (splitmix64(rank_seed + id), id) and the reservoir keeps the k
  /// smallest ranks — also order-independent, unlike classic Algorithm R
  /// whose result depends on arrival order. Evicted candidates count as
  /// sampled_out, so kept + sampled_out + dropped == minted always.
  struct Sampling {
    /// Keep one in n by id hash; 1 keeps everything (the default —
    /// artifacts are byte-identical to a tracer without sampling).
    std::uint64_t sample_one_in_n = 1;
    /// Base seed for the gate/rank streams (core::derive_stream_seed).
    std::uint64_t seed = 0;
    /// Fixed-size bottom-k reservoir over gate survivors; 0 = off.
    std::size_t reservoir = 0;
  };

  QueryTracer() = default;
  explicit QueryTracer(Limits limits) : limits_(limits) {}
  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Off by default; instrumentation guards on this before building any
  /// stage payload. Lock-free read.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Mint a new query. Returns 0 when disabled — every other call
  /// treats id 0 as "not traced", so callers never need their own guard
  /// beyond skipping payload construction. Ids stay monotonic even when
  /// the store is full (the trace body is then dropped and counted).
  QueryId begin(core::TimePoint t, std::string_view kind,
                QueryId parent = 0);

  /// Append a stage to a live query. No-ops for id 0, unknown ids
  /// (evicted/overflowed), or already-finished queries.
  void stage(QueryId id, core::TimePoint t, std::string_view stage,
             Reason reason, std::vector<Field> fields = {});

  /// Append the terminal "verdict" stage and latch the trace. Later
  /// stage()/finish() calls for this id are dropped.
  void finish(QueryId id, core::TimePoint t, Reason reason,
              std::vector<Field> fields = {});

  /// Configure sampling. Call before the run fans out (the same
  /// configure-then-record rule Telemetry documents for sinks); changing
  /// the gate mid-run would split the kept set across two rules.
  void set_sampling(const Sampling& sampling);
  [[nodiscard]] Sampling sampling() const;

  /// Attach a streaming sink: finished traces are serialized and handed
  /// to `sink` immediately (then freed — memory stays bounded by the
  /// open-query count, not the run length), and to_jsonl()'s store stays
  /// empty. Incompatible with reservoir mode (a reservoir must retain
  /// candidates to evict them; it is already bounded by construction):
  /// reservoir is ignored while a stream is attached. Configure before
  /// fanning out; pass nullptr to detach.
  void set_stream(StreamingQueryTraceSink* sink);

  /// Snapshot of all stored traces, in mint order.
  [[nodiscard]] std::vector<QueryTrace> snapshot() const;
  /// Queries minted while enabled (including dropped ones).
  [[nodiscard]] std::uint64_t minted() const;
  /// Traces dropped because the store was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Traces kept (stored, or already streamed out).
  [[nodiscard]] std::uint64_t kept() const;
  /// Traces the sampling gate or the reservoir rejected.
  [[nodiscard]] std::uint64_t sampled_out() const;
  /// Forget all stored traces (keeps the id counter monotonic).
  void clear();

  /// Export the accounting into `registry` as obs.query_trace.kept /
  /// .sampled_out / .dropped counters, so `mntp-inspect` reconciliation
  /// can tell "sampled away on purpose" from "lost". Call at finalize.
  void export_counters(MetricsRegistry& registry) const;

  /// Streaming finalize: push every still-stored trace (finished or not)
  /// to the attached sink in id order and drain it. No-op without a
  /// stream. Returns false on sink I/O failure.
  bool finish_stream(std::string_view run, core::TimePoint sim_end);

  /// Serialize the store as query-trace JSONL (schema v1): a meta line
  /// {"type":"meta","kind":"mntp_query_trace",...} then one
  /// {"type":"query",...} line per trace in mint order. `run` names the
  /// producing bench; `sim_end` stamps the end of the simulated run.
  [[nodiscard]] std::string to_jsonl(std::string_view run,
                                     core::TimePoint sim_end) const;
  /// to_jsonl straight to a file; returns false on I/O failure.
  bool write_jsonl_file(const std::string& path, std::string_view run,
                        core::TimePoint sim_end) const;

 private:
  /// True when the gate keeps this id (pure function of sampling_ and id).
  [[nodiscard]] bool gate_keeps(QueryId id) const;
  /// Store a freshly minted trace, honouring the reservoir / capacity
  /// rules. Caller holds mutex_.
  void store_locked(QueryTrace trace);
  /// Append the sampling meta block to a JsonWriter-owned string; caller
  /// holds mutex_.
  [[nodiscard]] bool sampling_active() const {
    return sampling_.sample_one_in_n > 1 || sampling_.reservoir > 0;
  }

  Limits limits_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::atomic<std::uint64_t> next_id_{1};
  Sampling sampling_;
  std::uint64_t gate_seed_ = 0;  // derive_stream_seed(sampling_.seed, 0)
  std::uint64_t rank_seed_ = 0;  // derive_stream_seed(sampling_.seed, 1)
  StreamingQueryTraceSink* stream_ = nullptr;
  std::vector<QueryTrace> traces_;
  std::vector<std::size_t> free_slots_;  // recycled by stream/reservoir
  std::unordered_map<QueryId, std::size_t> index_;
  /// Bottom-k reservoir: max-heap of (rank hash, id) over stored
  /// candidates; the top is the first to evict.
  std::vector<std::pair<std::uint64_t, QueryId>> reservoir_heap_;
  std::uint64_t kept_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t dropped_queries_ = 0;
  std::uint64_t dropped_stages_ = 0;
};

/// The ambient query: (tracer, id) for the query the current thread is
/// working on behalf of. Null tracer / id 0 when none.
struct AmbientQuery {
  QueryTracer* tracer = nullptr;
  QueryId id = 0;
};

/// Read the current thread's ambient query. Decision emitters use this
/// to attach stages without any API changes along the call path:
///
///   if (auto q = obs::ambient_query(); q.tracer) {
///     q.tracer->stage(q.id, now, "popcorn", Reason::kPopcornSuppressed,
///                     {{"deviation_ms", dev * 1e3}});
///   }
[[nodiscard]] AmbientQuery ambient_query();

/// Installs (tracer, id) as the thread's ambient query for this scope;
/// restores the previous ambient on destruction. Nestable. Passing
/// id 0 installs "no ambient" (emitters see a null tracer), so callers
/// can wrap unconditionally with the id they hold.
class ActiveQueryScope {
 public:
  ActiveQueryScope(QueryTracer& tracer, QueryId id);
  ~ActiveQueryScope();
  ActiveQueryScope(const ActiveQueryScope&) = delete;
  ActiveQueryScope& operator=(const ActiveQueryScope&) = delete;

 private:
  AmbientQuery previous_;
};

}  // namespace mntp::obs
