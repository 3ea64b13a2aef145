// Query-scoped causal tracing ("flight recorder").
//
// Metrics say HOW MANY samples were rejected; spans say HOW LONG a round
// took; this layer answers WHY a particular exchange ended the way it
// did. Every sync query (an MNTP/NTP round, or one client↔server
// exchange within it) is assigned a monotonically increasing `QueryId`
// minted at the client, and every hop and accept/defer/reject decision
// along its path appends a stage record — simulation timestamp, stage
// name, typed reason code (obs/reason_codes.h), and numeric payload
// fields — to a bounded store owned by the Telemetry context.
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
// Sampling decides at mint: begin() runs the gate first, and a query
// the store will not hold (sampled out, or the store is full) gets its
// id back with kUnrecordedMark set. Emitters holding an id test
// obs::recorded(id) before they build a payload; stage() and finish()
// return at once for a marked id. An ActiveQueryScope for a marked id
// installs a null ambient tracer but keeps the id, so ambient emitters
// under it build nothing, it still hides an enclosing recorded query
// from them, and children minted under it still name it as their parent
// (parents are stored without the mark).
//
// Determinism & overhead: the tracer only OBSERVES — it never consumes
// RNG draws, never schedules events, and is off by default behind the
// same cached-atomic guard discipline as the profiler, so untraced runs
// are bit-identical to a build without the instrumentation (pinned by
// mntp_engine_test; perf_suite's telemetry_overhead_off prices the off
// path). The store is bounded
// (max_queries / max_stages_per_query); overflow increments dropped
// counters instead of growing without bound. Minting, the sampled-out
// count and the max_queries cap are lock-free atomics.
//
// Thread contract: a query's stages and verdict are written on the
// thread that minted it. Each thread appends to its own store: a flat
// arena of trace, stage and field records, registered with the tracer
// under its mutex the first time the thread keeps a query. stage() and
// finish() then find the open query in the calling thread's store with
// no lock and no hash, so replicates on pool workers and the parallel
// tuner's tasks never contend. A stage or finish for an id that is not
// open on the calling thread is dropped, like a straggler after the
// verdict. The mutex guards only that registration and the readers
// (export, snapshot), which run after the recording threads are done.
//
// Literal-name rule: stage names, query kinds and field keys are Names,
// built only from string literals (a consteval constructor rejects a
// runtime string at compile time), so the store keeps their pointers
// and nothing it points at can dangle. String field values are copied
// into the store. Emitters pass fields as an initializer list, so a
// stage() call allocates nothing of its own.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/time.h"
#include "obs/reason_codes.h"

namespace mntp::obs {

class MetricsRegistry;

/// A stage name, query kind or field key. Only a string literal makes
/// one (the constructor is consteval), so the store keeps the pointer.
class Name {
 public:
  template <std::size_t N>
  consteval Name(const char (&literal)[N])  // NOLINT(google-explicit-constructor)
      : data_(literal) {}
  [[nodiscard]] std::string_view view() const { return data_; }

 private:
  const char* data_;
};

/// One stage payload entry as an emitter passes it: a literal key and a
/// JSON scalar. A string value is borrowed for the call and copied into
/// the store; int64 covers counts and ns. Other integer types must be
/// cast, so no value silently changes its JSON type.
struct FieldArg {
  enum class Type : std::uint8_t { kInt, kDouble, kBool, kString };

  FieldArg(Name k, std::int64_t v) : key(k), type(Type::kInt), i(v) {}
  FieldArg(Name k, double v) : key(k), type(Type::kDouble), d(v) {}
  FieldArg(Name k, bool v) : key(k), type(Type::kBool), b(v) {}
  FieldArg(Name k, std::string_view v) : key(k), type(Type::kString), s(v) {}
  FieldArg(Name k, const char* v) : FieldArg(k, std::string_view(v)) {}

  Name key;
  Type type;
  union {
    std::int64_t i;
    double d;
    bool b;
    std::string_view s;
  };
};

using Fields = std::initializer_list<FieldArg>;

/// Stage payload values as snapshot() materializes them: JSON's scalar
/// types, owned.
using FieldValue = std::variant<std::int64_t, double, std::string, bool>;

struct Field {
  std::string key;
  FieldValue value;
};

/// Monotonic per-tracer query identifier; 0 is "no query" (disabled).
using QueryId = std::uint64_t;

/// Set on the id of a query the store does not hold (sampled out by the
/// gate, or minted while the store was full). The low bits are the
/// minted id.
inline constexpr QueryId kUnrecordedMark = QueryId{1} << 63;

/// True when `id` names a query in the store: stages for it land.
/// Emitters holding an id test this before building a payload.
[[nodiscard]] inline bool recorded(QueryId id) {
  return id != 0 && (id & kUnrecordedMark) == 0;
}

/// One hop or decision in the life of a query (as snapshot() returns
/// it; the store itself keeps flat records).
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

class QueryTracer {
 public:
  struct Limits {
    std::size_t max_queries = 1 << 16;
    std::size_t max_stages_per_query = 128;
  };

  /// Deterministic trace sampling. First-N-wins (the pre-sampling
  /// behaviour, and still the backstop via Limits) keeps whatever
  /// happened to be minted early — at fleet scale that is the warm-up
  /// transient, not a representative sample. The gate instead hashes a
  /// per-query key: a trace is a KEEP candidate iff
  ///
  ///   splitmix64(gate_seed + key) % sample_one_in_n == 0,
  ///
  /// with gate_seed = core::derive_stream_seed(seed, 0). The key is the
  /// query id, or inside a ReplicateScope that replicate's own key (see
  /// there). The kept set is a pure function of (seed, n, queries minted
  /// per replicate) — the same across thread counts, schedulings and
  /// re-runs, which is what the determinism tests pin. Gated-away ids
  /// count as sampled_out, so kept + sampled_out + dropped == minted
  /// always.
  struct Sampling {
    /// Keep one in n by key hash; 1 keeps everything (the default —
    /// artifacts are byte-identical to a tracer without sampling).
    std::uint64_t sample_one_in_n = 1;
    /// Base seed for the gate stream (core::derive_stream_seed).
    std::uint64_t seed = 0;
  };

  /// Marks the calling thread as running replicate `index` of a
  /// replicated run (sim::ReplicationRunner installs one per replicate).
  /// Inside it the sampling gate hashes the key (index << 40) + n, where
  /// n = 1, 2, ... counts the queries this scope has minted, instead of
  /// the process-wide id. Which queries a replicate keeps then depends on
  /// that replicate alone, not on how replicates interleave across
  /// threads; replicate 0's keys are the ids a single run mints, so it
  /// keeps what the single run keeps. Ids themselves are still minted
  /// process-wide. Nestable: restores the enclosing scope on exit.
  class ReplicateScope {
   public:
    explicit ReplicateScope(std::size_t index);
    ~ReplicateScope();
    ReplicateScope(const ReplicateScope&) = delete;
    ReplicateScope& operator=(const ReplicateScope&) = delete;

   private:
    friend class QueryTracer;
    std::uint64_t next_key_;
    ReplicateScope* previous_;
  };

  QueryTracer();
  explicit QueryTracer(Limits limits);
  ~QueryTracer();
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

  /// Mint a new query. Returns 0 when disabled. The sampling gate and
  /// the max_queries cap are atomics: a query the store will not hold
  /// (sampled out, or the store is full — then counted as dropped) comes
  /// back with kUnrecordedMark set, and every other call treats it like
  /// id 0, so callers skip payload construction with obs::recorded(id).
  /// A kept query goes into the calling thread's store (registered under
  /// the mutex on the thread's first kept query). The minted numbers
  /// stay monotonic either way. `parent` is stored without its mark.
  QueryId begin(core::TimePoint t, Name kind, QueryId parent = 0);

  /// Append a stage to a query open on the calling thread. No-ops for
  /// id 0, marked ids, already-finished queries and queries minted on
  /// another thread. Takes no lock.
  void stage(QueryId id, core::TimePoint t, Name stage, Reason reason,
             Fields fields = {});

  /// Append the terminal "verdict" stage and latch the trace. Later
  /// stage()/finish() calls for this id are dropped. Takes no lock.
  void finish(QueryId id, core::TimePoint t, Reason reason,
              Fields fields = {});

  /// Configure sampling. Call before the run fans out (the same
  /// configure-then-record rule Telemetry documents for sinks); changing
  /// the gate mid-run would split the kept set across two rules.
  void set_sampling(const Sampling& sampling);
  [[nodiscard]] Sampling sampling() const;

  /// All stored traces materialized, in mint order (for tests). Like
  /// the export, call it once the recording threads are done.
  [[nodiscard]] std::vector<QueryTrace> snapshot() const;
  /// Queries minted while enabled (including dropped ones).
  [[nodiscard]] std::uint64_t minted() const;
  /// Traces dropped because the store was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Traces kept in the store.
  [[nodiscard]] std::uint64_t kept() const;
  /// Traces the sampling gate rejected.
  [[nodiscard]] std::uint64_t sampled_out() const;

  /// Export the accounting into `registry` as obs.query_trace.kept /
  /// .sampled_out / .dropped counters, so `mntp-inspect` reconciliation
  /// can tell "sampled away on purpose" from "lost". Call at finalize.
  void export_counters(MetricsRegistry& registry) const;

  /// Stream the stores as query-trace JSONL (schema v1): a meta line
  /// {"type":"meta","kind":"mntp_query_trace",...} then one
  /// {"type":"query",...} line per trace in mint order, written in
  /// chunks of about 64 KiB, so the artifact is never held whole in
  /// memory. `run` names the producing bench; `sim_end` stamps the end
  /// of the simulated run. Call it once the recording threads are done.
  void write_jsonl(std::ostream& out, std::string_view run,
                   core::TimePoint sim_end) const;
  /// write_jsonl to a file; returns false on I/O failure, including a
  /// failed final flush.
  bool write_jsonl_file(const std::string& path, std::string_view run,
                        core::TimePoint sim_end) const;

 private:
  /// One thread's append-only store (defined in query_trace.cc).
  struct Store;

  /// True when the gate keeps this key (pure function of sampling_ and
  /// key).
  [[nodiscard]] bool gate_keeps(std::uint64_t key) const;
  [[nodiscard]] bool sampling_active() const {
    return sampling_.sample_one_in_n > 1;
  }
  /// The calling thread's store, found through a small thread-local
  /// cache keyed by serial_; on a miss, looked up (or, with `create`,
  /// registered) under the mutex. Null when the thread has none.
  Store* local_store(bool create);
  /// The stores' traces in id order. Requires mutex_.
  template <typename Visit>
  void for_each_in_id_order(Visit&& visit) const;

  Limits limits_;
  /// Names this tracer in the thread-local store caches; never reused,
  /// so a cache entry of a destroyed tracer never matches again.
  const std::uint64_t serial_;
  std::atomic<bool> enabled_{false};
  /// Written by set_sampling before the run fans out; read by begin()
  /// without the lock.
  Sampling sampling_;
  std::uint64_t gate_seed_ = 0;  // derive_stream_seed(sampling_.seed, 0)
  /// The counters every begin() bumps live on their own cache line, so
  /// they do not evict enabled_ and the limits from the readers.
  alignas(64) std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> sampled_out_{0};
  /// Queries that passed the gate: the first max_queries are kept, the
  /// rest are dropped.
  std::atomic<std::uint64_t> admitted_{0};
  /// Guards stores_ (registration and the readers) and sampling_ writes.
  alignas(64) mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Store>> stores_;
};

/// The ambient query: (tracer, id) for the query the current thread is
/// working on behalf of. Null tracer / id 0 when none; null tracer and
/// the marked id under an unrecorded query.
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
/// can wrap unconditionally with the id they hold. A marked id installs
/// a null tracer with the id kept: emitters under it build nothing,
/// an enclosing recorded query is hidden from them, and queries minted
/// under it still take it as their parent.
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
