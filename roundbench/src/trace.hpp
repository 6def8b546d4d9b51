// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around the calls it makes into each layer, kept in
// memory, and written out once as Chrome trace-event JSON when the run
// ends (load the file in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace roundbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  ///< since the tracer was created
    int64_t end_ns = -1;   ///< -1 while the span is open
    int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
    int64_t round = -1;    ///< round id the span belongs to, -1 for none
  };

  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled);

  /// Opens a span nested in the innermost open one; returns its id (-1
  /// when disabled). Spans must close in LIFO order on one thread.
  int64_t begin(std::string name, int64_t round = -1);
  void end(int64_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per span name, in first-seen order: each span's duration
  /// minus the time its direct children cover.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;

  /// Writes {"traceEvents": [...], "otherData": <metadata>} where
  /// `metadata_json` is a JSON object. Returns false on an I/O error.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       const std::string& metadata_json) const;

 private:
  [[nodiscard]] int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int64_t round = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), round)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace roundbench
