#include "obs/query_trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "core/json_writer.h"
#include "core/rng.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace mntp::obs {

namespace {

thread_local AmbientQuery t_ambient;
thread_local QueryTracer::ReplicateScope* t_replicate = nullptr;

void write_field(core::JsonWriter& w, const Field& f) {
  w.key(f.key);
  std::visit([&](const auto& v) { w.value(v); }, f.value);
}

/// One {"type":"query",...} JSONL line body (no trailing newline).
void append_query_trace_json(std::string& out, const QueryTrace& trace) {
  core::JsonWriter w(out);
  w.begin_object()
      .kv("type", "query")
      .kv("id", trace.id)
      .kv("parent", trace.parent)
      .kv("kind", trace.kind)
      .kv("start_ns", trace.started.ns())
      .key("stages")
      .begin_array();
  for (const QueryStage& s : trace.stages) {
    w.begin_object()
        .kv("t_ns", s.t.ns())
        .kv("stage", s.stage)
        .kv("reason", to_string(s.reason))
        .key("fields")
        .begin_object();
    for (const Field& f : s.fields) write_field(w, f);
    w.end_object().end_object();
  }
  w.end_array().end_object();
}

}  // namespace

QueryTracer::ReplicateScope::ReplicateScope(std::size_t index)
    : next_key_((static_cast<std::uint64_t>(index) << 40) + 1),
      previous_(t_replicate) {
  t_replicate = this;
}

QueryTracer::ReplicateScope::~ReplicateScope() { t_replicate = previous_; }

bool QueryTracer::gate_keeps(std::uint64_t key) const {
  if (sampling_.sample_one_in_n <= 1) return true;
  return core::splitmix64(gate_seed_ + key) % sampling_.sample_one_in_n == 0;
}

void QueryTracer::set_sampling(const Sampling& sampling) {
  std::lock_guard lock(mutex_);
  sampling_ = sampling;
  if (sampling_.sample_one_in_n == 0) sampling_.sample_one_in_n = 1;
  gate_seed_ = core::derive_stream_seed(sampling_.seed, 0);
}

QueryTracer::Sampling QueryTracer::sampling() const {
  std::lock_guard lock(mutex_);
  return sampling_;
}

QueryId QueryTracer::begin(core::TimePoint t, std::string_view kind,
                           QueryId parent) {
  if (!enabled()) return 0;
  const QueryId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t key =
      t_replicate != nullptr ? t_replicate->next_key_++ : id;
  if (!gate_keeps(key)) {
    // Sampled away: no lock, and the mark makes every later call for
    // this id return before building or taking anything.
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return id | kUnrecordedMark;
  }
  std::lock_guard lock(mutex_);
  if (traces_.size() >= limits_.max_queries) {
    ++dropped_queries_;
    return id | kUnrecordedMark;
  }
  index_.emplace(id, traces_.size());
  QueryTrace& trace = traces_.emplace_back();
  trace.id = id;
  trace.parent = parent & ~kUnrecordedMark;
  trace.kind = std::string(kind);
  trace.started = t;
  return id;
}

void QueryTracer::stage(QueryId id, core::TimePoint t,
                        std::string_view stage, Reason reason,
                        std::vector<Field> fields) {
  if (!recorded(id) || !enabled()) return;
  std::lock_guard lock(mutex_);
  auto it = index_.find(id);
  if (it == index_.end()) return;
  QueryTrace& trace = traces_[it->second];
  if (trace.finished) return;  // straggler after the verdict
  if (trace.stages.size() >= limits_.max_stages_per_query) {
    ++dropped_stages_;
    return;
  }
  trace.stages.push_back(
      QueryStage{t, std::string(stage), reason, std::move(fields)});
}

void QueryTracer::finish(QueryId id, core::TimePoint t, Reason reason,
                         std::vector<Field> fields) {
  if (!recorded(id) || !enabled()) return;
  std::lock_guard lock(mutex_);
  auto it = index_.find(id);
  if (it == index_.end()) return;
  QueryTrace& trace = traces_[it->second];
  if (trace.finished) return;
  // The verdict always lands, even at the stage cap — a trace without a
  // terminal reason is useless to `mntp-inspect explain`.
  trace.stages.push_back(
      QueryStage{t, "verdict", reason, std::move(fields)});
  trace.finished = true;
}

std::vector<QueryTrace> QueryTracer::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<QueryTrace> out = traces_;
  std::sort(out.begin(), out.end(),
            [](const QueryTrace& a, const QueryTrace& b) {
              return a.id < b.id;
            });
  return out;
}

std::uint64_t QueryTracer::minted() const {
  return next_id_.load(std::memory_order_relaxed) - 1;
}

std::uint64_t QueryTracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_queries_;
}

std::uint64_t QueryTracer::kept() const {
  std::lock_guard lock(mutex_);
  return traces_.size();
}

std::uint64_t QueryTracer::sampled_out() const {
  return sampled_out_.load(std::memory_order_relaxed);
}

void QueryTracer::export_counters(MetricsRegistry& registry) const {
  std::uint64_t kept, sampled_out, dropped;
  {
    std::lock_guard lock(mutex_);
    kept = traces_.size();
    sampled_out = sampled_out_.load(std::memory_order_relaxed);
    dropped = dropped_queries_;
  }
  registry.counter(metric_names::kObsQueryTraceKept)->inc(kept);
  registry.counter(metric_names::kObsQueryTraceSampledOut)->inc(sampled_out);
  registry.counter(metric_names::kObsQueryTraceDropped)->inc(dropped);
}

void QueryTracer::write_jsonl(std::ostream& out, std::string_view run,
                              core::TimePoint sim_end) const {
  std::lock_guard lock(mutex_);
  // Lines go out in chunks of about kChunkBytes: the artifact is never
  // held whole, and the file sees few large writes.
  constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  std::string chunk;
  {
    core::JsonWriter w(chunk);
    w.begin_object()
        .kv("type", "meta")
        .kv("schema_version", std::int64_t{1})
        .kv("kind", "mntp_query_trace")
        .kv("run", run)
        .kv("sim_end_ns", sim_end.ns())
        .kv("query_count", static_cast<std::int64_t>(traces_.size()))
        .kv("dropped", static_cast<std::int64_t>(dropped_queries_))
        .kv("dropped_stages", static_cast<std::int64_t>(dropped_stages_));
    if (sampling_active()) {
      // Only present when a gate is configured: unsampled artifacts
      // stay byte-identical to the pre-sampling schema.
      w.key("sampling")
          .begin_object()
          .kv("sample_one_in_n",
              static_cast<std::int64_t>(sampling_.sample_one_in_n))
          .kv("seed", sampling_.seed)
          .kv("minted",
              next_id_.load(std::memory_order_relaxed) - 1)
          .kv("kept", static_cast<std::uint64_t>(traces_.size()))
          .kv("sampled_out", sampled_out_.load(std::memory_order_relaxed))
          .end_object();
    }
    w.end_object();
  }
  chunk += '\n';
  // Emit in id order. Queries are *stored* in insertion order, and
  // concurrent minters (parallel replicates, tuner workers) can insert
  // in a different order than they minted — the artifact contract is
  // strictly increasing ids regardless of producer interleaving.
  std::vector<const QueryTrace*> ordered;
  ordered.reserve(traces_.size());
  for (const QueryTrace& trace : traces_) ordered.push_back(&trace);
  std::sort(ordered.begin(), ordered.end(),
            [](const QueryTrace* a, const QueryTrace* b) {
              return a->id < b->id;
            });
  for (const QueryTrace* trace_ptr : ordered) {
    append_query_trace_json(chunk, *trace_ptr);
    chunk += '\n';
    if (chunk.size() >= kChunkBytes) {
      out << chunk;
      chunk.clear();
    }
  }
  out << chunk;
}

bool QueryTracer::write_jsonl_file(const std::string& path,
                                   std::string_view run,
                                   core::TimePoint sim_end) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out, run, sim_end);
  return static_cast<bool>(out);
}

AmbientQuery ambient_query() { return t_ambient; }

ActiveQueryScope::ActiveQueryScope(QueryTracer& tracer, QueryId id)
    : previous_(t_ambient) {
  t_ambient = AmbientQuery{recorded(id) ? &tracer : nullptr, id};
}

ActiveQueryScope::~ActiveQueryScope() { t_ambient = previous_; }

}  // namespace mntp::obs
