// One live cluster member as a real OS process.
//
// NodeProcess fork/execs the live_node worker binary with its identity,
// port, seed, shared epoch and encoded swim::Config on argv, connected to
// the parent by a SOCK_STREAM socketpair carrying the line protocol of
// live/control.h. The worker's stderr goes to a per-node log file.
//
// Crash-fault mapping: SIGSTOP/SIGCONT freeze and thaw the process (sim
// block/unblock — a stopped process neither sends nor receives), SIGKILL is
// a crash, and a respawn is a brand-new NodeProcess on the *same* UDP port
// so the member rejoins under its old address.
//
// Orphan safety is layered: every child sets PR_SET_PDEATHSIG(SIGKILL) so a
// dying parent takes its workers with it, and the parent registers every
// live pid in a global table that emergency_teardown() SIGKILLs — the
// watchdog and fatal-error paths call it before exiting.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "live/control.h"

namespace lifeguard::live {

/// SIGKILL every registered live worker pid. Safe to call from any thread
/// and repeatedly; used by the scenario_runner watchdog and fatal paths.
void emergency_teardown();
void register_live_pid(pid_t pid);
void unregister_live_pid(pid_t pid);

class NodeProcess {
 public:
  struct Options {
    int index = 0;
    /// 0 lets the worker pick a free port (first spawn); a respawn passes
    /// the previous port so the member keeps its address.
    std::uint16_t udp_port = 0;
    std::uint64_t seed = 1;
    std::int64_t epoch_ns = 0;
    /// The --config object (ScenarioFile::config_members in braces).
    std::string config_spec;
    std::string binary;       ///< path to the live_node executable
    std::string log_path;     ///< per-node stderr log ("" = inherit)
    Duration tick = msec(200);  ///< worker TICK cadence
    /// Telemetry self-sampling cadence: the worker emits kMetricSample EV
    /// lines (node = its index) every interval. 0 disables sampling.
    Duration metrics_interval{};
  };

  NodeProcess() = default;
  ~NodeProcess();

  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;
  NodeProcess(NodeProcess&& o) noexcept;
  NodeProcess& operator=(NodeProcess&& o) noexcept;

  /// Fork/exec the worker. False (with `error`) on spawn failure.
  bool spawn(const Options& opts, std::string& error);

  /// Block until the worker's HELLO arrives (recording its bound UDP port)
  /// or `timeout` of wall time passes. False on timeout/EOF/garbage.
  bool handshake(Duration timeout, std::string& error);

  /// Write one protocol line to the worker; false once the worker is gone.
  bool send_line(std::string_view line);

  void sigstop();
  void sigcont();
  void kill_hard();  ///< SIGKILL
  /// Non-blocking reap; returns true once the child has been collected
  /// (then running() goes false).
  bool try_reap();
  /// SIGKILL (if still up) and wait. Used for teardown.
  void kill_and_reap();

  bool running() const { return pid_ > 0 && !reaped_; }
  pid_t pid() const { return pid_; }
  int index() const { return index_; }
  int control_fd() const { return control_fd_; }
  std::uint16_t udp_port() const { return udp_port_; }
  /// 127.0.0.1:<udp_port> — valid after handshake().
  Address address() const;

  /// Line framer for this worker's control stream (parent side reads
  /// control_fd() and feeds it here).
  LineBuffer& lines() { return lines_; }

 private:
  void close_control();

  pid_t pid_ = -1;
  bool reaped_ = false;
  int index_ = -1;
  int control_fd_ = -1;
  std::uint16_t udp_port_ = 0;
  std::unique_ptr<LineWriter> writer_;
  LineBuffer lines_;
};

}  // namespace lifeguard::live
