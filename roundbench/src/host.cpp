#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "core/parallel.hpp"
#include "tensor/gemm.hpp"

namespace roundbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string HostFingerprint::json() const {
  return "{\"cores\": " + std::to_string(cores) + ", \"cpu_model\": \"" +
         json_escape(cpu_model) + "\", \"simd\": \"" + json_escape(simd) +
         "\", \"pool_threads\": " + std::to_string(pool_threads) +
         ", \"processes\": " + std::to_string(processes) + "}";
}

HostFingerprint host_fingerprint(int64_t processes) {
  HostFingerprint h;
  h.cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      h.cpu_model = line.substr(colon + 1);
      h.cpu_model.erase(0, h.cpu_model.find_first_not_of(' '));
    }
    break;
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.simd = comdml::tensor::gemm_kernel_name();
  h.pool_threads = comdml::core::num_threads();
  h.processes = processes;
  return h;
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pid_peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kib) == 1)
      return static_cast<double>(kib) / 1024.0;
  }
  return 0.0;
}

int64_t self_minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

}  // namespace roundbench
