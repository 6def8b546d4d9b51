// Sample statistics and the result record of one benchmark run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace roundbench {

/// Median of `samples` (mean of the two middle values for even counts).
/// Requires a non-empty input.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Samples that lie strictly beyond the nearest-rank `p` percentile of
/// `count` samples.
[[nodiscard]] int64_t samples_beyond(int64_t count, double p);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least `min_beyond` of `count` samples beyond it; 0 when even the median
/// does not.
[[nodiscard]] double tail_percentile(int64_t count, int64_t min_beyond = 10);

/// Metric names: a letter or digit first, then up to 63 more of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

/// One run's verdict and metrics, printed as the single JSON line the
/// benchmark ends with.
class RunResult {
 public:
  /// Adds a metric; throws std::invalid_argument for a malformed name or
  /// unit and for a name used twice. A non-finite value makes the run
  /// incorrect.
  void add(const std::string& name, double value, const std::string& unit);

  void fail_check(const std::string& what);
  void count_round(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  [[nodiscard]] bool correct() const noexcept {
    return problems_.empty() && failed_ == 0 && attempted_ > 0;
  }
  [[nodiscard]] int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }
  [[nodiscard]] bool has(std::string_view name) const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Shortest round-trip decimal form of a double (all its digits).
[[nodiscard]] std::string format_double(double v);

}  // namespace roundbench
