#include "obs/timeseries.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/json_writer.h"

namespace mntp::obs {

namespace {

thread_local int suppress_depth = 0;

}  // namespace

// --- TimeSeries -----------------------------------------------------------

TimeSeries::TimeSeries(std::string name, Labels labels, std::string probe_kind,
                       std::size_t capacity)
    : name_(std::move(name)),
      labels_(std::move(labels)),
      probe_kind_(std::move(probe_kind)),
      capacity_(std::max<std::size_t>(capacity, 2)) {}

void TimeSeries::append(std::int64_t t_ns, double value) {
  ++samples_;
  // The trailing point is "open" while it holds fewer than stride_ raw
  // samples; fold into it, otherwise start a new point (compacting 2:1
  // first when the buffer is full).
  if (!points_.empty() && points_.back().count < stride_) {
    TimeSeriesPoint& p = points_.back();
    p.t_ns = t_ns;
    p.min = std::min(p.min, value);
    p.max = std::max(p.max, value);
    p.sum += value;
    p.last = value;
    ++p.count;
    return;
  }
  if (points_.size() == capacity_) compact();
  points_.push_back(TimeSeriesPoint{
      .t_ns = t_ns, .min = value, .max = value, .sum = value, .last = value,
      .count = 1});
}

void TimeSeries::compact() {
  // Merge adjacent pairs in place: point i absorbs point i+1, halving the
  // buffer; each surviving point now spans twice as many raw samples.
  std::size_t w = 0;
  for (std::size_t r = 0; r < points_.size(); r += 2) {
    TimeSeriesPoint merged = points_[r];
    if (r + 1 < points_.size()) {
      const TimeSeriesPoint& b = points_[r + 1];
      merged.t_ns = b.t_ns;
      merged.min = std::min(merged.min, b.min);
      merged.max = std::max(merged.max, b.max);
      merged.sum += b.sum;
      merged.last = b.last;
      merged.count += b.count;
    }
    points_[w++] = merged;
  }
  points_.resize(w);
  stride_ *= 2;
}

// --- ProbeHandle ----------------------------------------------------------

ProbeHandle::ProbeHandle(ProbeHandle&& other) noexcept
    : recorder_(std::exchange(other.recorder_, nullptr)),
      id_(std::exchange(other.id_, 0)) {}

ProbeHandle& ProbeHandle::operator=(ProbeHandle&& other) noexcept {
  if (this != &other) {
    reset();
    recorder_ = std::exchange(other.recorder_, nullptr);
    id_ = std::exchange(other.id_, 0);
  }
  return *this;
}

ProbeHandle::~ProbeHandle() { reset(); }

void ProbeHandle::reset() {
  if (recorder_ != nullptr) {
    recorder_->unregister(id_);
    recorder_ = nullptr;
    id_ = 0;
  }
}

// --- TimeSeriesRecorder ---------------------------------------------------

TimeSeriesRecorder::TimeSeriesRecorder() : TimeSeriesRecorder(Options{}) {}

TimeSeriesRecorder::TimeSeriesRecorder(Options options) : options_(options) {}

void TimeSeriesRecorder::set_cadence(core::Duration cadence) {
  if (cadence <= core::Duration::zero()) {
    throw std::invalid_argument("TimeSeriesRecorder: cadence must be > 0");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  cadence_ = cadence;
}

core::Duration TimeSeriesRecorder::cadence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cadence_;
}

TimeSeriesRecorder::SuppressScope::SuppressScope(bool engage)
    : engaged_(engage) {
  if (engaged_) ++suppress_depth;
}

TimeSeriesRecorder::SuppressScope::~SuppressScope() {
  if (engaged_) --suppress_depth;
}

bool TimeSeriesRecorder::suppressed() { return suppress_depth > 0; }

ProbeHandle TimeSeriesRecorder::register_probe(std::string_view name,
                                               Labels labels,
                                               std::string probe_kind, Probe fn,
                                               std::uint64_t initial_counter) {
  if (!capturing()) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  // Always a fresh series: a second registration under the same
  // name+labels (another testbed, another client) gets a disambiguating
  // suffix instead of splicing into the first one's timeline.
  std::string unique_name(name);
  std::size_t duplicates = 0;
  for (const auto& s : series_) {
    if (s->name() == name || (s->name().rfind(std::string(name) + "#", 0) == 0)) {
      if (s->labels() == labels) ++duplicates;
    }
  }
  if (duplicates > 0) {
    unique_name += "#" + std::to_string(duplicates + 1);
  }
  series_.push_back(std::make_unique<TimeSeries>(
      std::move(unique_name), std::move(labels), std::move(probe_kind),
      options_.series_capacity));
  Registration reg;
  reg.id = next_id_++;
  reg.fn = std::move(fn);
  reg.series = series_.back().get();
  reg.last_counter = initial_counter;
  probes_.push_back(std::move(reg));
  return ProbeHandle(this, probes_.back().id);
}

ProbeHandle TimeSeriesRecorder::probe(std::string_view name, Labels labels,
                                      Probe fn) {
  return register_probe(name, std::move(labels), kCallbackProbe,
                        std::move(fn), 0);
}

ProbeHandle TimeSeriesRecorder::counter_probe(
    std::string_view name, Labels labels,
    std::function<std::uint64_t()> total) {
  // Read the total only for a probe that will exist. The closure returns
  // the RAW total; sample() differences it against the previous reading
  // kept in the registration.
  if (!capturing()) return {};
  const std::uint64_t initial = total();
  return register_probe(
      name, std::move(labels), kCounterProbe,
      [total = std::move(total)](core::TimePoint) -> std::optional<double> {
        return static_cast<double>(total());
      },
      initial);
}

void TimeSeriesRecorder::unregister(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(probes_,
                [id](const Registration& r) { return r.id == id; });
}

void TimeSeriesRecorder::sample(core::TimePoint now) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Registration& reg : probes_) {
    const std::optional<double> v = reg.fn(now);
    if (!v.has_value()) continue;
    double value = *v;
    if (reg.series->probe_kind() == kCounterProbe) {
      // Per-interval delta; counters are monotonic so this is >= 0.
      const auto raw = static_cast<std::uint64_t>(value);
      value = static_cast<double>(raw - reg.last_counter);
      reg.last_counter = raw;
    }
    reg.series->append(now.ns(), value);
    ++samples_taken_;
  }
}

std::size_t TimeSeriesRecorder::series_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::uint64_t TimeSeriesRecorder::samples_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_taken_;
}

std::vector<const TimeSeries*> TimeSeriesRecorder::series() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const TimeSeries*> out;
  out.reserve(series_.size());
  for (const auto& s : series_) out.push_back(s.get());
  return out;
}

// --- Timeline JSONL -------------------------------------------------------

void write_timeline(std::ostream& out, const TimeSeriesRecorder& recorder,
                    std::string_view run_name, core::TimePoint sim_end) {
  // Probes registered but never sampled (e.g. tuner-emulator engines that
  // never ran inside a simulation) would export as empty series; skip
  // them and keep series_count honest.
  std::vector<const TimeSeries*> series = recorder.series();
  std::erase_if(series,
                [](const TimeSeries* s) { return s->points().empty(); });
  std::string line;
  core::JsonWriter(line)
      .begin_object()
      .kv("type", "meta")
      .kv("schema_version", 1)
      .kv("kind", "mntp_timeline")
      .kv("run", run_name)
      .kv("sim_end_ns", sim_end.ns())
      .kv("cadence_ns", recorder.cadence().ns())
      .kv("series_count", static_cast<std::uint64_t>(series.size()))
      .end_object();
  out << line << '\n';
  for (const TimeSeries* s : series) {
    line.clear();
    core::JsonWriter w(line);
    w.begin_object()
        .kv("type", "series")
        .kv("name", s->name())
        .kv("probe", s->probe_kind());
    w.key("labels").begin_object();
    for (const auto& [k, v] : s->labels()) w.kv(k, v);
    w.end_object();
    w.kv("samples", s->samples());
    w.kv("stride", s->stride());
    w.key("points").begin_array();
    for (const TimeSeriesPoint& p : s->points()) {
      w.begin_array()
          .value(p.t_ns)
          .value(p.min)
          .value(p.mean())
          .value(p.max)
          .value(p.last)
          .value(p.count)
          .end_array();
    }
    w.end_array().end_object();
    out << line << '\n';
  }
}

core::Status write_timeline_file(const std::string& path,
                                 const TimeSeriesRecorder& recorder,
                                 std::string_view run_name,
                                 core::TimePoint sim_end) {
  std::ofstream out(path);
  if (!out) {
    return core::Error::io("cannot open timeline path: " + path);
  }
  write_timeline(out, recorder, run_name, sim_end);
  out.flush();
  if (!out) {
    return core::Error::io("failed writing timeline: " + path);
  }
  return {};
}

}  // namespace mntp::obs
