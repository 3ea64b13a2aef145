#include "ledger.h"

#include <cstdio>

namespace mntp::e2e {

int Ledger::open(const char* name) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({.name = name,
                    .parent = stack_.empty() ? -1 : stack_.back(),
                    .start_ns = now_ns()});
  stack_.push_back(index);
  return index;
}

void Ledger::close(int index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  stack_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

void Ledger::absorb(std::vector<std::unique_ptr<Ledger>> tasks,
                    std::int64_t wall_ns) {
  if (!enabled_) return;
  std::map<std::string, double> busy;
  double total = 0.0;
  for (const auto& task : tasks) {
    for (const auto& [name, seconds] : task->self_seconds()) {
      busy[name] += seconds;
      total += seconds;
    }
  }
  std::int64_t charged = 0;
  for (const auto& [name, seconds] : busy) {
    const auto ns = static_cast<std::int64_t>(
        static_cast<double>(wall_ns) * seconds / total);
    absorbed_ns_[name] += ns;
    charged += ns;
  }
  if (!stack_.empty()) spans_[static_cast<std::size_t>(stack_.back())].child_ns += charged;
  for (auto& task : tasks) tasks_.push_back(std::move(task));
}

std::map<std::string, double> Ledger::self_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += static_cast<double>(s.self_ns()) * 1e-9;
  for (const auto& [name, leaf] : leaves_) {
    out[name] += static_cast<double>(leaf.total_ns) * 1e-9;
  }
  for (const auto& [name, ns] : absorbed_ns_) {
    out[name] += static_cast<double>(ns) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Ledger::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  for (const auto& task : tasks_) {
    for (const auto& [name, seconds] : task->total_seconds()) out[name] += seconds;
  }
  return out;
}

namespace {

void write_spans(std::FILE* f, const std::vector<Ledger::Span>& spans, int task) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Ledger::Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"task\":%d,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}",
                 task < 0 && i == 0 ? "" : ",", task, i, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns()));
  }
}

}  // namespace

bool Ledger::write_json(const std::string& path, const std::string& run_id) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Task -1 is this ledger; tasks 0.. are the absorbed ones, whose clocks
  // start when each task's ledger was created.
  std::fprintf(f, "{\"kind\":\"mntp_e2e_spans\",\"run\":\"%s\",\"spans\":[",
               run_id.c_str());
  write_spans(f, spans_, -1);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    write_spans(f, tasks_[t]->spans_, static_cast<int>(t));
  }
  std::fprintf(f, "],\"leaves\":[");
  const char* sep = "";
  for (const auto& [name, leaf] : leaves_) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"count\":%llu,\"total_ns\":%lld}", sep,
                 name.c_str(), static_cast<unsigned long long>(leaf.count),
                 static_cast<long long>(leaf.total_ns));
    sep = ",";
  }
  std::fprintf(f, "],\"absorbed\":[");
  sep = "";
  for (const auto& [name, ns] : absorbed_ns_) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"charged_ns\":%lld}", sep, name.c_str(),
                 static_cast<long long>(ns));
    sep = ",";
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace mntp::e2e
