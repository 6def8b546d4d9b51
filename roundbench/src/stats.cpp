#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace roundbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

namespace {

/// Zero-based index of the nearest-rank `p` percentile among `count`.
int64_t rank_index(int64_t count, double p) {
  const auto rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9));
  return std::clamp<int64_t>(rank - 1, 0, count - 1);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty())
    throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  const auto idx = static_cast<size_t>(
      rank_index(static_cast<int64_t>(samples.size()), p));
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

int64_t samples_beyond(int64_t count, double p) {
  if (count <= 0) return 0;
  return count - 1 - rank_index(count, p);
}

double tail_percentile(int64_t count, int64_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(count, p) >= min_beyond) return p;
  return 0.0;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

std::string format_double(double v) {
  char buf[40];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void RunResult::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("malformed metric name '" + name + "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("malformed unit '" + unit + "'");
  if (has(name))
    throw std::invalid_argument("metric '" + name + "' reported twice");
  if (!std::isfinite(value)) fail_check("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void RunResult::fail_check(const std::string& what) {
  problems_.push_back(what);
}

bool RunResult::has(std::string_view name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string RunResult::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    // Names and units are grammar-checked in add(): nothing to escape.
    out += "\"" + m.name + "\": {\"value\": ";
    out += std::isfinite(m.value) ? format_double(m.value) : "null";
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace roundbench
