#include "obs/streaming.h"

#include <utility>

#include "core/json_writer.h"
#include "obs/timeseries.h"

namespace mntp::obs {

// --- ChunkedJsonlWriter ---------------------------------------------------

bool ChunkedJsonlWriter::open(const std::string& path, Options options) {
  options_ = options;
  if (options_.chunk_bytes == 0) options_.chunk_bytes = 1;
  // in|out so the meta slot can be rewritten in place at close.
  file_.open(path, std::ios::in | std::ios::out | std::ios::trunc |
                       std::ios::binary);
  if (!file_) return false;
  buffer_.clear();
  bytes_written_ = 0;
  flushes_ = 0;
  if (options_.meta_width > 0) {
    std::string slot(options_.meta_width - 1, ' ');
    slot += '\n';
    file_.write(slot.data(), static_cast<std::streamsize>(slot.size()));
    bytes_written_ += slot.size();
  }
  return static_cast<bool>(file_);
}

void ChunkedJsonlWriter::line(std::string_view body) {
  if (!is_open()) return;
  buffer_ += body;
  buffer_ += '\n';
  if (buffer_.size() >= options_.chunk_bytes) flush();
}

bool ChunkedJsonlWriter::flush() {
  if (!is_open()) return false;
  if (buffer_.empty()) return static_cast<bool>(file_);
  file_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  bytes_written_ += buffer_.size();
  ++flushes_;
  buffer_.clear();
  return static_cast<bool>(file_);
}

bool ChunkedJsonlWriter::close() {
  if (!is_open()) return false;
  const bool ok = flush();
  file_.close();
  return ok && !file_.fail();
}

bool ChunkedJsonlWriter::close_with_meta(std::string_view meta) {
  if (!is_open()) return false;
  if (options_.meta_width == 0 || meta.size() > options_.meta_width - 1) {
    file_.close();
    return false;
  }
  bool ok = flush();
  std::string slot(meta);
  slot.resize(options_.meta_width - 1, ' ');
  slot += '\n';
  file_.seekp(0);
  file_.write(slot.data(), static_cast<std::streamsize>(slot.size()));
  ok = ok && static_cast<bool>(file_);
  file_.close();
  return ok && !file_.fail();
}

// --- StreamingQueryTraceSink ----------------------------------------------

bool StreamingQueryTraceSink::open(const std::string& path, Options options) {
  std::lock_guard lock(mutex_);
  options_ = options;
  if (options_.max_pending == 0) options_.max_pending = 1;
  next_emit_ = 1;
  pending_.clear();
  emitted_ = 0;
  reorder_dropped_ = 0;
  return writer_.open(path, options_.writer);
}

bool StreamingQueryTraceSink::is_open() const {
  std::lock_guard lock(mutex_);
  return writer_.is_open();
}

void StreamingQueryTraceSink::account(QueryId id) {
  std::lock_guard lock(mutex_);
  resolve_locked(id, std::nullopt);
}

void StreamingQueryTraceSink::emit(const QueryTrace& trace) {
  std::string line;
  append_query_trace_json(line, trace);
  std::lock_guard lock(mutex_);
  resolve_locked(trace.id, std::move(line));
}

void StreamingQueryTraceSink::resolve_locked(
    QueryId id, std::optional<std::string> line) {
  if (id < next_emit_) {
    // Straggler for an id the window already force-advanced past. A gap
    // marker is harmless; a real line is lost — count it rather than
    // violate the strictly-increasing-id contract.
    if (line.has_value()) ++reorder_dropped_;
    return;
  }
  pending_[id] = std::move(line);
  drain_locked();
  // Overflow: pop the window's front entries in id order — skipping the
  // unresolved gaps below them — until it fits again. Ids skipped here
  // that resolve later land in the straggler branch above.
  while (pending_.size() > options_.max_pending) {
    auto it = pending_.begin();
    next_emit_ = it->first + 1;
    if (it->second.has_value()) {
      writer_.line(*it->second);
      ++emitted_;
    }
    pending_.erase(it);
    drain_locked();
  }
}

void StreamingQueryTraceSink::drain_locked() {
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == next_emit_;
       it = pending_.erase(it), ++next_emit_) {
    if (it->second.has_value()) {
      writer_.line(*it->second);
      ++emitted_;
    }
  }
}

bool StreamingQueryTraceSink::close(std::string_view run,
                                    core::TimePoint sim_end,
                                    const QueryTracer::Sampling& sampling,
                                    std::uint64_t minted, std::uint64_t kept,
                                    std::uint64_t sampled_out,
                                    std::uint64_t dropped,
                                    std::uint64_t dropped_stages) {
  std::lock_guard lock(mutex_);
  if (!writer_.is_open()) return false;
  // By finalize every minted id has been emitted or accounted, so the
  // window normally drains empty; flush defensively in id order anyway.
  while (!pending_.empty()) {
    auto it = pending_.begin();
    next_emit_ = it->first + 1;
    if (it->second.has_value()) {
      writer_.line(*it->second);
      ++emitted_;
    }
    pending_.erase(it);
  }
  std::string meta;
  core::JsonWriter w(meta);
  w.begin_object()
      .kv("type", "meta")
      .kv("schema_version", std::int64_t{1})
      .kv("kind", "mntp_query_trace")
      .kv("run", run)
      .kv("sim_end_ns", sim_end.ns())
      .kv("query_count", emitted_)
      .kv("dropped", dropped)
      .kv("dropped_stages", dropped_stages)
      .kv("streamed", true)
      .kv("reorder_dropped", reorder_dropped_);
  if (sampling.sample_one_in_n > 1 || sampling.reservoir > 0) {
    w.key("sampling")
        .begin_object()
        .kv("sample_one_in_n", sampling.sample_one_in_n)
        .kv("seed", sampling.seed)
        .kv("reservoir", static_cast<std::uint64_t>(sampling.reservoir))
        .kv("minted", minted)
        .kv("kept", kept)
        .kv("sampled_out", sampled_out)
        .end_object();
  }
  w.end_object();
  return writer_.close_with_meta(meta);
}

std::uint64_t StreamingQueryTraceSink::emitted() const {
  std::lock_guard lock(mutex_);
  return emitted_;
}

std::uint64_t StreamingQueryTraceSink::reorder_dropped() const {
  std::lock_guard lock(mutex_);
  return reorder_dropped_;
}

std::uint64_t StreamingQueryTraceSink::bytes_written() const {
  std::lock_guard lock(mutex_);
  return writer_.bytes_written();
}

std::uint64_t StreamingQueryTraceSink::flushes() const {
  std::lock_guard lock(mutex_);
  return writer_.flushes();
}

// --- Timeline through the chunked writer ----------------------------------

core::Status write_timeline_chunked(const std::string& path,
                                    const TimeSeriesRecorder& recorder,
                                    std::string_view run_name,
                                    core::TimePoint sim_end,
                                    std::uint64_t* bytes_written,
                                    std::uint64_t* flushes) {
  std::vector<const TimeSeries*> series;
  for (const TimeSeries* s : recorder.series()) {
    if (!s->points().empty()) series.push_back(s);
  }
  ChunkedJsonlWriter writer;
  ChunkedJsonlWriter::Options options;
  options.meta_width = 0;  // series set known up front; meta is exact
  if (!writer.open(path, options)) {
    return core::Error::io("cannot open timeline path: " + path);
  }
  std::string line;
  append_timeline_meta_json(line, run_name, sim_end, recorder.cadence(),
                            series.size());
  writer.line(line);
  for (const TimeSeries* s : series) {
    line.clear();
    append_timeline_series_json(line, *s);
    writer.line(line);
  }
  const bool ok = writer.close();
  if (bytes_written != nullptr) *bytes_written = writer.bytes_written();
  if (flushes != nullptr) *flushes = writer.flushes();
  if (!ok) return core::Error::io("failed writing timeline: " + path);
  return {};
}

}  // namespace mntp::obs
