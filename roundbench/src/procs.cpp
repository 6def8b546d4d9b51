#include "procs.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "host.hpp"

extern char** environ;

namespace roundbench {
namespace {

/// fork + execve with the benchmark's environment plus
/// COMDML_NUM_THREADS=1. Everything the child touches between fork and
/// exec is prepared here first: the parent is multi-threaded, so the
/// child may only make async-signal-safe calls.
pid_t spawn(const std::string& bin, const std::vector<std::string>& args) {
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "COMDML_NUM_THREADS=", 19) != 0)
      env_store.emplace_back(*e);
  env_store.emplace_back("COMDML_NUM_THREADS=1");
  std::vector<char*> envp;
  for (auto& s : env_store) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<std::string> argv_store{bin};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_store) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the benchmark; if it already died, do not run at all.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    // The benchmark's stdout carries its result line: daemon chatter goes
    // to stderr.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execve(bin.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  return pid;
}

}  // namespace

FleetdGroup::FleetdGroup(const std::string& fleetd_bin,
                         const std::string& base_dir, int64_t workers,
                         const std::vector<std::string>& spec_args) {
  if (::access(fleetd_bin.c_str(), X_OK) != 0)
    throw std::runtime_error("fleetd binary not found at " + fleetd_bin);
  // A short relative directory keeps every socket path (including the
  // ".peerN.gM" mesh siblings) far below the 108-byte sun_path limit.
  std::string templ = base_dir + "/fd_XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr)
    throw std::runtime_error("cannot create socket directory under " +
                             base_dir + ": " + std::strerror(errno));
  dir_ = templ;
  addr_ = "unix:" + dir_ + "/c.sock";
  try {
    std::vector<std::string> coord{"--listen", addr_, "--workers",
                                   std::to_string(workers)};
    coord.insert(coord.end(), spec_args.begin(), spec_args.end());
    std::lock_guard<std::mutex> guard(mu_);
    pids_.push_back(spawn(fleetd_bin, coord));
    reaped_.push_back(0);
    for (int64_t w = 0; w < workers; ++w) {
      pids_.push_back(spawn(fleetd_bin, {"--worker", "--index",
                                         std::to_string(w), "--connect",
                                         addr_}));
      reaped_.push_back(0);
    }
  } catch (...) {
    kill_all();
    reap_all_blocking();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    throw;
  }
}

FleetdGroup::~FleetdGroup() {
  kill_all();
  reap_all_blocking();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

double FleetdGroup::peak_rss_mb() const {
  std::lock_guard<std::mutex> guard(mu_);
  double peak = 0.0;
  for (size_t i = 0; i < pids_.size(); ++i)
    if (reaped_[i] == 0) peak = std::max(peak, pid_peak_rss_mb(pids_[i]));
  return peak;
}

bool FleetdGroup::wait_exit(double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  bool all_ok = true;
  for (;;) {
    bool pending = false;
    {
      std::lock_guard<std::mutex> guard(mu_);
      for (size_t i = 0; i < pids_.size(); ++i) {
        if (reaped_[i] != 0) continue;
        int status = 0;
        const pid_t r = ::waitpid(pids_[i], &status, WNOHANG);
        if (r == pids_[i] || r < 0) {
          reaped_[i] = 1;
          if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            all_ok = false;
        } else {
          pending = true;
        }
      }
    }
    if (!pending) return all_ok;
    if (std::chrono::steady_clock::now() >= deadline) {
      kill_all();
      reap_all_blocking();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void FleetdGroup::kill_all() noexcept {
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < pids_.size(); ++i)
    if (reaped_[i] == 0) ::kill(pids_[i], SIGKILL);
}

void FleetdGroup::reap_all_blocking() noexcept {
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < pids_.size(); ++i) {
    if (reaped_[i] != 0) continue;
    int status = 0;
    while (::waitpid(pids_[i], &status, 0) < 0 && errno == EINTR) {
    }
    reaped_[i] = 1;
  }
}

Watchdog::Watchdog(std::function<void()> on_expiry)
    : on_expiry_(std::move(on_expiry)), thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::arm(double seconds) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    armed_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
  }
  cv_.notify_all();
}

void Watchdog::disarm() {
  std::lock_guard<std::mutex> guard(mu_);
  armed_ = false;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (!armed_) {
      cv_.wait(lock, [&] { return stop_ || armed_; });
      continue;
    }
    const auto deadline = deadline_;
    if (cv_.wait_until(lock, deadline, [&] {
          return stop_ || !armed_ || deadline_ != deadline;
        }))
      continue;
    armed_ = false;
    lock.unlock();
    on_expiry_();
    lock.lock();
  }
}

}  // namespace roundbench
