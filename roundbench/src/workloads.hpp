// The benchmark's workloads and the two kinds of run: the end-to-end run
// (tracing off) and the traced run (spans, counters, per-layer probes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace roundbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;
  /// Writable directory inside the checkout: fleetd sockets and the trace
  /// file go here. Relative paths keep unix socket paths short.
  std::string work_dir = ".";
  std::string fleetd_bin;
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. The host fingerprint and human-readable lines go to
/// stdout as the run progresses; the returned result is what the final
/// JSON line carries.
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

}  // namespace roundbench
