// roundbench — the repository benchmark's runner.
//
//   roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>] [--fleetd <path>]
//
// Prints the host fingerprint and every metric by name with its unit, then
// one JSON line {"correct", "attempted", "failed", "metrics"} last. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones of a separate traced run. Exit status 0 means every
// output check passed.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: roundbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--fleetd <path>]\n"
               "workloads:");
  for (const std::string& w : roundbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

/// Directory of this executable (fleetd is built next to it).
std::string exe_dir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  return path.substr(0, path.find_last_of('/'));
}

}  // namespace

int main(int argc, char** argv) {
  roundbench::RunConfig cfg;
  cfg.fleetd_bin = exe_dir() + "/fleetd";
  try {
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      const std::string value = argv[++i];
      size_t used = 0;
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value, &used);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value, &used);
        if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0))
          throw std::invalid_argument("--seconds must be in (0, 600]");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1")
          throw std::invalid_argument("--trace must be 0 or 1");
        cfg.trace = value == "1";
      } else if (arg == "--work-dir") {
        cfg.work_dir = value;
      } else if (arg == "--fleetd") {
        cfg.fleetd_bin = value;
      } else {
        throw std::invalid_argument("unknown flag " + arg);
      }
      if (used != 0 && used != value.size())
        throw std::invalid_argument("malformed value for " + arg);
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: %s\n", e.what());
    usage();
    return 2;
  }

  try {
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0);
    const roundbench::RunResult result = roundbench::run_workload(cfg);
    std::printf("%s metrics:\n", cfg.trace ? "per-layer" : "end-to-end");
    for (const auto& m : result.metrics())
      std::printf("  %-40s %s %s\n", m.name.c_str(),
                  roundbench::format_double(m.value).c_str(), m.unit.c_str());
    if (result.problems().empty()) {
      std::printf("checks: all outputs correct\n");
    } else {
      for (const std::string& p : result.problems())
        std::printf("check failed: %s\n", p.c_str());
    }
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "roundbench: %s\n", e.what());
    return 1;
  }
}
