#include "obs/query_trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/json_writer.h"
#include "core/rng.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace mntp::obs {

namespace {

thread_local AmbientQuery t_ambient;
thread_local QueryTracer::ReplicateScope* t_replicate = nullptr;

std::atomic<std::uint64_t> g_next_serial{1};

}  // namespace

/// One thread's traces as flat records: a trace names its first and last
/// stage, each stage the next stage of its query and its run of fields,
/// and string values live in one character arena. Only the owning thread
/// appends; ids arrive in mint order, so `traces` is sorted by id. Each
/// store has its own cache lines, so appends on one thread never
/// invalidate another thread's vector ends.
struct alignas(64) QueryTracer::Store {
  static constexpr std::uint32_t kNoStage = ~std::uint32_t{0};

  struct Trace {
    QueryId id;
    QueryId parent;
    Name kind;
    core::TimePoint started;
    std::uint32_t first_stage = kNoStage;
    std::uint32_t last_stage = kNoStage;
    std::uint32_t stage_count = 0;
    bool finished = false;
  };
  struct Stage {
    core::TimePoint t;
    Name name;
    Reason reason;
    std::uint32_t first_field;
    std::uint32_t field_count;
    std::uint32_t next = kNoStage;
  };
  /// A field: the key, a tag, and one 8-byte scalar (a string value is
  /// its offset and size in `chars`).
  struct StoredField {
    Name key;
    FieldArg::Type type;
    union {
      std::int64_t i;
      double d;
      bool b;
      struct {
        std::uint32_t offset;
        std::uint32_t size;
      } s;
    };
  };

  static_assert(sizeof(StoredField) == 24);

  explicit Store(std::thread::id thread) : owner(thread) {}

  /// The trace of `id`, or null when it was not minted on this thread.
  Trace* find(QueryId id) {
    if (traces.empty()) return nullptr;
    if (traces.back().id == id) return &traces.back();
    const auto it = std::lower_bound(
        traces.begin(), traces.end(), id,
        [](const Trace& trace, QueryId want) { return trace.id < want; });
    return it != traces.end() && it->id == id ? &*it : nullptr;
  }

  void append_stage(Trace& trace, core::TimePoint t, Name name,
                    Reason reason, Fields args) {
    const auto index = static_cast<std::uint32_t>(stages.size());
    stages.push_back(Stage{.t = t,
                           .name = name,
                           .reason = reason,
                           .first_field =
                               static_cast<std::uint32_t>(fields.size()),
                           .field_count =
                               static_cast<std::uint32_t>(args.size())});
    if (trace.last_stage == kNoStage) {
      trace.first_stage = index;
    } else {
      stages[trace.last_stage].next = index;
    }
    trace.last_stage = index;
    ++trace.stage_count;
    for (const FieldArg& arg : args) {
      StoredField& f = fields.emplace_back(StoredField{arg.key, arg.type, {}});
      switch (arg.type) {
        case FieldArg::Type::kInt: f.i = arg.i; break;
        case FieldArg::Type::kDouble: f.d = arg.d; break;
        case FieldArg::Type::kBool: f.b = arg.b; break;
        case FieldArg::Type::kString:
          f.s = {static_cast<std::uint32_t>(chars.size()),
                 static_cast<std::uint32_t>(arg.s.size())};
          chars.append(arg.s);
          break;
      }
    }
  }

  /// Calls visit(stage, fields of the stage) for each stage of `trace`.
  template <typename Visit>
  void for_each_stage(const Trace& trace, Visit&& visit) const {
    for (std::uint32_t s = trace.first_stage; s != kNoStage;
         s = stages[s].next) {
      const Stage& stage = stages[s];
      visit(stage, std::span<const StoredField>(
                       fields.data() + stage.first_field, stage.field_count));
    }
  }

  /// Calls fn with the field's value: int64, double, bool or a view of
  /// its characters.
  template <typename Fn>
  void visit_value(const StoredField& f, Fn&& fn) const {
    switch (f.type) {
      case FieldArg::Type::kInt: return fn(f.i);
      case FieldArg::Type::kDouble: return fn(f.d);
      case FieldArg::Type::kBool: return fn(f.b);
      case FieldArg::Type::kString:
        return fn(std::string_view(chars).substr(f.s.offset, f.s.size));
    }
  }

  /// One {"type":"query",...} JSONL line body (no trailing newline).
  void append_json(std::string& out, const Trace& trace) const {
    core::JsonWriter w(out);
    w.begin_object()
        .kv("type", "query")
        .kv("id", trace.id)
        .kv("parent", trace.parent)
        .kv("kind", trace.kind.view())
        .kv("start_ns", trace.started.ns())
        .key("stages")
        .begin_array();
    for_each_stage(trace, [&](const Stage& stage,
                              std::span<const StoredField> stage_fields) {
      w.begin_object()
          .kv("t_ns", stage.t.ns())
          .kv("stage", stage.name.view())
          .kv("reason", to_string(stage.reason))
          .key("fields")
          .begin_object();
      for (const StoredField& f : stage_fields) {
        w.key(f.key.view());
        visit_value(f, [&](auto v) { w.value(v); });
      }
      w.end_object().end_object();
    });
    w.end_array().end_object();
  }

  [[nodiscard]] QueryTrace materialize(const Trace& trace) const {
    QueryTrace out{.id = trace.id,
                   .parent = trace.parent,
                   .kind = std::string(trace.kind.view()),
                   .started = trace.started,
                   .stages = {},
                   .finished = trace.finished};
    for_each_stage(trace, [&](const Stage& stage,
                              std::span<const StoredField> stage_fields) {
      QueryStage& s = out.stages.emplace_back(QueryStage{
          .t = stage.t,
          .stage = std::string(stage.name.view()),
          .reason = stage.reason,
          .fields = {}});
      for (const StoredField& f : stage_fields) {
        FieldValue value;
        visit_value(f, [&](auto v) {
          if constexpr (std::is_same_v<decltype(v), std::string_view>) {
            value = std::string(v);
          } else {
            value = v;
          }
        });
        s.fields.push_back(
            Field{std::string(f.key.view()), std::move(value)});
      }
    });
    return out;
  }

  const std::thread::id owner;
  std::vector<Trace> traces;
  std::vector<Stage> stages;
  std::vector<StoredField> fields;
  std::string chars;
  std::uint64_t dropped_stages = 0;
};

QueryTracer::QueryTracer() : QueryTracer(Limits{}) {}

QueryTracer::QueryTracer(Limits limits)
    : limits_(limits),
      serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)) {}

QueryTracer::~QueryTracer() = default;

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

QueryTracer::Store* QueryTracer::local_store(bool create) {
  // The tracers this thread used last, most recent first. A thread that
  // alternates between a few tracers finds each store here; a miss (a
  // new tracer, or one pushed out) looks the store up by thread id.
  struct Slot {
    std::uint64_t tracer = 0;
    Store* store = nullptr;
  };
  thread_local std::array<Slot, 4> t_slots;
  auto hit = std::find_if(t_slots.begin(), t_slots.end(),
                          [&](const Slot& s) { return s.tracer == serial_; });
  if (hit != t_slots.end() && (hit->store != nullptr || !create)) {
    std::rotate(t_slots.begin(), hit, hit + 1);
    return t_slots.front().store;
  }
  Store* store = nullptr;
  {
    std::lock_guard lock(mutex_);
    const std::thread::id self = std::this_thread::get_id();
    for (const auto& s : stores_) {
      if (s->owner == self) store = s.get();
    }
    if (store == nullptr && create) {
      store = stores_.emplace_back(std::make_unique<Store>(self)).get();
    }
  }
  if (hit == t_slots.end()) hit = t_slots.end() - 1;  // evict the oldest
  *hit = Slot{serial_, store};
  std::rotate(t_slots.begin(), hit, hit + 1);
  return store;
}

QueryId QueryTracer::begin(core::TimePoint t, Name kind, QueryId parent) {
  if (!enabled()) return 0;
  const QueryId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t key =
      t_replicate != nullptr ? t_replicate->next_key_++ : id;
  if (!gate_keeps(key)) {
    // Sampled away: the mark makes every later call for this id return
    // before building or touching anything.
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return id | kUnrecordedMark;
  }
  if (admitted_.fetch_add(1, std::memory_order_relaxed) >=
      limits_.max_queries) {
    return id | kUnrecordedMark;  // store full: counted as dropped
  }
  local_store(true)->traces.push_back(Store::Trace{
      .id = id, .parent = parent & ~kUnrecordedMark, .kind = kind,
      .started = t});
  return id;
}

void QueryTracer::stage(QueryId id, core::TimePoint t, Name stage,
                        Reason reason, Fields fields) {
  if (!recorded(id) || !enabled()) return;
  Store* store = local_store(false);
  Store::Trace* trace = store != nullptr ? store->find(id) : nullptr;
  if (trace == nullptr || trace->finished) return;  // or a straggler
  if (trace->stage_count >= limits_.max_stages_per_query) {
    ++store->dropped_stages;
    return;
  }
  store->append_stage(*trace, t, stage, reason, fields);
}

void QueryTracer::finish(QueryId id, core::TimePoint t, Reason reason,
                         Fields fields) {
  if (!recorded(id) || !enabled()) return;
  Store* store = local_store(false);
  Store::Trace* trace = store != nullptr ? store->find(id) : nullptr;
  if (trace == nullptr || trace->finished) return;
  // The verdict always lands, even at the stage cap — a trace without a
  // terminal reason is useless to `mntp-inspect explain`.
  store->append_stage(*trace, t, "verdict", reason, fields);
  trace->finished = true;
}

template <typename Visit>
void QueryTracer::for_each_in_id_order(Visit&& visit) const {
  // Each store is in id order, but concurrent minters (parallel
  // replicates, tuner workers) interleave their ids across stores — the
  // artifact contract is strictly increasing ids regardless.
  std::vector<std::pair<const Store::Trace*, const Store*>> ordered;
  for (const auto& store : stores_) {
    for (const Store::Trace& trace : store->traces) {
      ordered.emplace_back(&trace, store.get());
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.first->id < b.first->id;
            });
  for (const auto& [trace, store] : ordered) visit(*store, *trace);
}

std::vector<QueryTrace> QueryTracer::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<QueryTrace> out;
  for_each_in_id_order([&](const Store& store, const Store::Trace& trace) {
    out.push_back(store.materialize(trace));
  });
  return out;
}

std::uint64_t QueryTracer::minted() const {
  return next_id_.load(std::memory_order_relaxed) - 1;
}

std::uint64_t QueryTracer::dropped() const {
  return admitted_.load(std::memory_order_relaxed) - kept();
}

std::uint64_t QueryTracer::kept() const {
  return std::min<std::uint64_t>(admitted_.load(std::memory_order_relaxed),
                                 limits_.max_queries);
}

std::uint64_t QueryTracer::sampled_out() const {
  return sampled_out_.load(std::memory_order_relaxed);
}

void QueryTracer::export_counters(MetricsRegistry& registry) const {
  registry.counter(metric_names::kObsQueryTraceKept)->inc(kept());
  registry.counter(metric_names::kObsQueryTraceSampledOut)
      ->inc(sampled_out());
  registry.counter(metric_names::kObsQueryTraceDropped)->inc(dropped());
}

void QueryTracer::write_jsonl(std::ostream& out, std::string_view run,
                              core::TimePoint sim_end) const {
  std::lock_guard lock(mutex_);
  std::uint64_t traces = 0;
  std::uint64_t dropped_stages = 0;
  for (const auto& store : stores_) {
    traces += store->traces.size();
    dropped_stages += store->dropped_stages;
  }
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
        .kv("query_count", static_cast<std::int64_t>(traces))
        .kv("dropped", static_cast<std::int64_t>(dropped()))
        .kv("dropped_stages", static_cast<std::int64_t>(dropped_stages));
    if (sampling_active()) {
      // Only present when a gate is configured: unsampled artifacts
      // stay byte-identical to the pre-sampling schema.
      w.key("sampling")
          .begin_object()
          .kv("sample_one_in_n",
              static_cast<std::int64_t>(sampling_.sample_one_in_n))
          .kv("seed", sampling_.seed)
          .kv("minted", minted())
          .kv("kept", traces)
          .kv("sampled_out", sampled_out())
          .end_object();
    }
    w.end_object();
  }
  chunk += '\n';
  for_each_in_id_order([&](const Store& store, const Store::Trace& trace) {
    store.append_json(chunk, trace);
    chunk += '\n';
    if (chunk.size() >= kChunkBytes) {
      out << chunk;
      chunk.clear();
    }
  });
  out << chunk;
}

bool QueryTracer::write_jsonl_file(const std::string& path,
                                   std::string_view run,
                                   core::TimePoint sim_end) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out, run, sim_end);
  // The last chunk may still sit in the stream's buffer: a full device
  // only reports on the flush.
  out.flush();
  return static_cast<bool>(out);
}

AmbientQuery ambient_query() { return t_ambient; }

ActiveQueryScope::ActiveQueryScope(QueryTracer& tracer, QueryId id)
    : previous_(t_ambient) {
  t_ambient = AmbientQuery{recorded(id) ? &tracer : nullptr, id};
}

ActiveQueryScope::~ActiveQueryScope() { t_ambient = previous_; }

}  // namespace mntp::obs
