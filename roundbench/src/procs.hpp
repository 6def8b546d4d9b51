// Hermetic fleetd process group: one coordinator and N workers spawned
// from the fleetd binary, talking over unix sockets in a private directory.
// The destructor kills and reaps every process that is still running and
// removes the directory, so no daemon or stale socket outlives the group
// on any exit path. Children also get SIGKILL if the benchmark dies.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace roundbench {

class FleetdGroup {
 public:
  /// Spawns `fleetd --listen unix:<dir>/c.sock --workers N <spec_args>`
  /// and N `fleetd --worker` processes, each with COMDML_NUM_THREADS=1.
  /// `base_dir` must exist; the group's socket directory is made inside.
  FleetdGroup(const std::string& fleetd_bin, const std::string& base_dir,
              int64_t workers, const std::vector<std::string>& spec_args);
  ~FleetdGroup();
  FleetdGroup(const FleetdGroup&) = delete;
  FleetdGroup& operator=(const FleetdGroup&) = delete;

  [[nodiscard]] const std::string& address() const noexcept { return addr_; }

  /// Largest peak RSS over the group's live processes, MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// Waits up to `seconds` for every process to exit (after a client
  /// shutdown); true when all exited with status 0. Stragglers are killed.
  bool wait_exit(double seconds);

  /// SIGKILL every process not yet reaped. Safe from another thread.
  void kill_all() noexcept;

 private:
  void reap_all_blocking() noexcept;

  std::string dir_;
  std::string addr_;
  mutable std::mutex mu_;      // guards pids_/reaped_ against kill_all()
  std::vector<pid_t> pids_;
  std::vector<char> reaped_;
};

/// Runs `on_expiry` on its own thread when an armed deadline passes, so a
/// blocking call that hangs becomes a counted failure instead of a hung
/// benchmark. Arm before the call, disarm after it.
class Watchdog {
 public:
  explicit Watchdog(std::function<void()> on_expiry);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(double seconds);
  void disarm();

 private:
  void loop();

  std::function<void()> on_expiry_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool stop_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::thread thread_;  // last: starts after the state it reads exists
};

}  // namespace roundbench
