// Streaming JSONL sinks: bounded-memory artifact writers.
//
// The batch exporters (QueryTracer::to_jsonl, write_run_report,
// write_timeline) build the whole artifact in memory and write it once —
// fine for a figure bench, hopeless for a fleet-scale soak where the
// trace artifact outgrows RAM long before the run ends. The writers here
// stream instead: lines accumulate in a fixed-size chunk buffer that is
// flushed when full, so peak memory is O(chunk + open state), not O(run).
//
// Artifact-shape contract: streamed files parse under the SAME schema as
// their batch counterparts (scripts/check_telemetry_schema.py and
// mntp-inspect read both without caring which writer produced them). Two
// mechanics make that work:
//
//   * Meta patching. JSONL puts the meta line FIRST, but its totals
//     (query_count, dropped) are only known at the end. The writer
//     reserves a fixed-width, space-padded meta slot at offset 0 and
//     rewrites it at close. Trailing spaces before the newline are
//     insignificant to every JSON parser we ship against (core::Json
//     tolerates trailing whitespace; Python json.loads likewise).
//
//   * Reorder buffering. The query-trace artifact promises strictly
//     increasing ids, but queries FINISH out of id order (exchange 7 can
//     complete before round 3 times out). StreamingQueryTraceSink holds
//     finished traces in a bounded reorder window keyed by id and emits
//     id k only once every id < k is accounted for — finished, sampled
//     out, or dropped (the tracer reports non-emitting ids via
//     account()). If the window overflows max_pending, the sink force-
//     advances past the oldest gap; a straggler for a skipped id is then
//     counted in reorder_dropped rather than breaking the id order.
//
// Every writer meters itself (bytes_written, flushes) — the raw feed for
// the obs.self.* metric family (see obs/metric_names.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/result.h"
#include "core/time.h"
#include "obs/query_trace.h"

namespace mntp::obs {

class TimeSeriesRecorder;

/// Chunk-buffered JSONL file writer with an optional patchable meta slot.
/// Not thread-safe; callers (the sinks below) serialize access.
class ChunkedJsonlWriter {
 public:
  struct Options {
    /// Flush the line buffer once it reaches this many bytes.
    std::size_t chunk_bytes = 1 << 16;
    /// Width (including trailing '\n') reserved at offset 0 for a meta
    /// line patched in at close; 0 reserves nothing (the caller writes
    /// the meta eagerly as its first line()).
    std::size_t meta_width = 512;
  };

  ChunkedJsonlWriter() = default;
  ChunkedJsonlWriter(const ChunkedJsonlWriter&) = delete;
  ChunkedJsonlWriter& operator=(const ChunkedJsonlWriter&) = delete;
  ~ChunkedJsonlWriter() { if (is_open()) close(); }

  /// Create/truncate `path`; reserves the meta slot when configured.
  [[nodiscard]] bool open(const std::string& path, Options options);
  [[nodiscard]] bool open(const std::string& path) {
    return open(path, Options{});
  }
  [[nodiscard]] bool is_open() const { return file_.is_open(); }

  /// Queue one line (`body` carries no trailing newline); flushes the
  /// chunk buffer when it crosses chunk_bytes.
  void line(std::string_view body);
  /// Force the chunk buffer to disk. Returns false on I/O failure.
  bool flush();

  /// Flush and close without touching the meta slot (for files whose
  /// meta was written eagerly via line()).
  bool close();
  /// Flush, rewrite the reserved meta slot with `meta` (space-padded to
  /// the reserved width), and close. Fails if no slot was reserved or
  /// `meta` does not fit in it.
  bool close_with_meta(std::string_view meta);

  /// Bytes handed to the OS so far (chunk flushes + the meta slot).
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  /// Physical chunk flushes so far (the meta slot does not count).
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

 private:
  Options options_;
  std::fstream file_;
  std::string buffer_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t flushes_ = 0;
};

/// Streaming writer for the query-trace artifact (kind
/// "mntp_query_trace"): attach via QueryTracer::set_stream, then
/// finalize with QueryTracer::finish_stream, which drains still-open
/// traces and calls close() with the final accounting. Thread-safe; in
/// practice the owning tracer already serializes emit/account under its
/// own mutex (the sink never calls back into the tracer).
class StreamingQueryTraceSink {
 public:
  struct Options {
    /// Reorder-window bound: maximum ids held waiting for a smaller id
    /// to resolve before the sink force-advances past the gap.
    std::size_t max_pending = 1 << 12;
    ChunkedJsonlWriter::Options writer;
  };

  StreamingQueryTraceSink() = default;
  StreamingQueryTraceSink(const StreamingQueryTraceSink&) = delete;
  StreamingQueryTraceSink& operator=(const StreamingQueryTraceSink&) = delete;

  [[nodiscard]] bool open(const std::string& path, Options options);
  [[nodiscard]] bool open(const std::string& path) {
    return open(path, Options{});
  }
  [[nodiscard]] bool is_open() const;

  /// Declare that `id` will never produce a line (sampled out, dropped):
  /// resolves its slot in the reorder window so larger ids can emit.
  void account(QueryId id);
  /// Hand over a complete trace; it is serialized now and written once
  /// every smaller id is accounted for.
  void emit(const QueryTrace& trace);

  /// Drain the reorder window, patch the meta line with the final
  /// accounting, and close the file. Called by finish_stream.
  bool close(std::string_view run, core::TimePoint sim_end,
             const QueryTracer::Sampling& sampling, std::uint64_t minted,
             std::uint64_t kept, std::uint64_t sampled_out,
             std::uint64_t dropped, std::uint64_t dropped_stages);

  /// Trace lines actually written.
  [[nodiscard]] std::uint64_t emitted() const;
  /// Finished traces lost because their id was force-advanced past.
  [[nodiscard]] std::uint64_t reorder_dropped() const;
  [[nodiscard]] std::uint64_t bytes_written() const;
  [[nodiscard]] std::uint64_t flushes() const;

 private:
  /// Resolve `id` with a serialized line (or a gap marker when nullopt),
  /// then emit every now-contiguous id. Caller holds mutex_.
  void resolve_locked(QueryId id, std::optional<std::string> line);
  void drain_locked();

  mutable std::mutex mutex_;
  Options options_;
  ChunkedJsonlWriter writer_;
  QueryId next_emit_ = 1;  ///< smallest id not yet written or skipped
  /// Reorder window: id -> serialized line, or nullopt for an accounted
  /// gap (sampled out / dropped) still blocking on smaller ids.
  std::map<QueryId, std::optional<std::string>> pending_;
  std::uint64_t emitted_ = 0;
  std::uint64_t reorder_dropped_ = 0;
};

/// Timeline export through the chunked writer: byte-identical to
/// write_timeline_file (the series set is known up front, so the meta
/// line is exact and needs no reserved slot) while flushing in bounded
/// chunks and metering bytes/flushes for obs.self.*.
core::Status write_timeline_chunked(const std::string& path,
                                    const TimeSeriesRecorder& recorder,
                                    std::string_view run_name,
                                    core::TimePoint sim_end,
                                    std::uint64_t* bytes_written = nullptr,
                                    std::uint64_t* flushes = nullptr);

}  // namespace mntp::obs
