// Host fingerprint and process resource readings. Every result carries the
// fingerprint so figures from different machines are never compared as a
// regression.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace roundbench {

struct HostFingerprint {
  int64_t cores = 0;          ///< online CPUs
  std::string cpu_model;      ///< /proc/cpuinfo "model name"
  std::string simd;           ///< GEMM micro-kernel the library selected
  int64_t pool_threads = 0;   ///< comdml thread pool size in this process
  int64_t processes = 1;      ///< OS processes the workload runs in

  [[nodiscard]] std::string json() const;
};

[[nodiscard]] HostFingerprint host_fingerprint(int64_t processes);

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set (VmHWM) of another live process, MiB; 0 if unknown.
[[nodiscard]] double pid_peak_rss_mb(pid_t pid);
/// Minor page faults taken by this process so far.
[[nodiscard]] int64_t self_minor_faults();

}  // namespace roundbench
