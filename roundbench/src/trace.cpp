#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace roundbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::begin(std::string name, int64_t round) {
  if (!enabled_) return -1;
  const auto id = static_cast<int64_t>(spans_.size());
  const int64_t parent = open_.empty() ? -1 : open_.back();
  if (round < 0 && parent >= 0)
    round = spans_[static_cast<size_t>(parent)].round;
  spans_.push_back({std::move(name), now_ns(), -1, parent, round});
  open_.push_back(id);
  return id;
}

void Tracer::end(int64_t id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("spans must close in LIFO order");
  spans_[static_cast<size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[i] += s.end_ns - s.start_ns;
    // Children of one span never overlap (one thread, LIFO), so the time
    // they cover is the sum of their durations.
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    const double sec = static_cast<double>(self[i]) * 1e-9;
    bool found = false;
    for (auto& [name, total] : out)
      if (name == spans_[i].name) {
        total += sec;
        found = true;
        break;
      }
    if (!found) out.emplace_back(spans_[i].name, sec);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Span names come from the benchmark's own string literals.
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"round\": %lld}}",
                 first ? "" : ",\n", s.name.c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.round));
    first = false;
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\", \"otherData\": %s}\n",
               metadata_json.c_str());
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace roundbench
