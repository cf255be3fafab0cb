// Control-channel protocol between the live tier's parent process and its
// per-node workers (examples/live_node.cc).
//
// Each worker holds one end of a SOCK_STREAM socketpair; both directions
// carry newline-terminated ASCII lines, so the protocol is greppable in logs
// and trivially testable without processes. Worker -> parent:
//
//   HELLO <index> <pid> <udp-port>       readiness handshake (exactly once)
//   EV {"t":..,"k":"suspect",...}        one check::TraceEvent (event_line)
//   TICK <t_us>                          liveness watermark: "nothing before
//                                        t_us will ever be emitted" — drives
//                                        the parent's K-way merge forward
//   STATS msgs=<n> bytes=<n> active=<n>  reply to a STATS request
//   BYE                                  clean shutdown acknowledgement
//
// Parent -> worker:
//
//   START <ip>:<port> | START -         join via the given seed, or be it
//   FAULT add <token> el=.. il=.. lat=.. jit=.. dup=.. rp=.. rs=..
//                                        install a netem overlay (tokens are
//                                        fault-timeline entry indices)
//   FAULT part <token> <ip:port,...>     block the listed peers (partition)
//   FAULT del <token>                    remove whatever <token> installed
//   STATS                                request a STATS reply
//   STOP                                 leave, flush, answer BYE, exit
//
// Timestamps are microseconds in the run's shared epoch: the parent captures
// net::steady_now_ns() once and hands it to every worker (--epoch-ns), so
// the EV/TICK streams of all processes merge on one comparable time base.
//
// The protocol config travels on argv too: --config carries the config
// object, `{"config":"Lifeguard","alpha":5,"beta":6,"k":3,...}`, which
// harness::ScenarioFile::config_members writes and config_from_json reads —
// the config keys of a trace header, in the same one-line layout.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/events.h"
#include "common/types.h"
#include "fault/fault.h"

namespace lifeguard::live {

// ---------------------------------------------------------------------------
// Address codec (argv/env-safe, no spaces)

/// "127.0.0.1:9000" — parse_address's exact inverse.
std::string format_address(const Address& a);
std::optional<Address> parse_address(std::string_view s);

// ---------------------------------------------------------------------------
// Worker -> parent messages

struct WorkerStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  int active = 0;  ///< members the worker currently believes alive
};

struct WorkerMsg {
  enum class Kind : std::uint8_t { kHello, kEvent, kTick, kStats, kBye };
  Kind kind = Kind::kBye;
  // kHello
  int index = -1;
  int pid = -1;
  std::uint16_t udp_port = 0;
  // kEvent
  check::TraceEvent event{};
  // kTick
  TimePoint tick{};
  // kStats
  WorkerStats stats{};
};

std::string hello_line(int index, int pid, std::uint16_t udp_port);
std::string event_msg_line(const check::TraceEvent& e);
std::string tick_line(TimePoint t);
std::string stats_line(const WorkerStats& s);
std::string bye_line();

std::optional<WorkerMsg> parse_worker_msg(std::string_view line,
                                          std::string& error);

// ---------------------------------------------------------------------------
// Parent -> worker commands

struct Command {
  enum class Kind : std::uint8_t {
    kStart,
    kFaultAdd,
    kFaultPart,
    kFaultDel,
    kStats,
    kStop,
  };
  Kind kind = Kind::kStop;
  std::optional<Address> join;        ///< kStart; nullopt = act as the seed
  int token = 0;                      ///< kFaultAdd/kFaultPart/kFaultDel
  fault::LinkFault overlay;           ///< kFaultAdd
  std::vector<Address> peers;         ///< kFaultPart
};

std::string start_line(const std::optional<Address>& join);
std::string fault_add_line(int token, const fault::LinkFault& o);
std::string fault_part_line(int token, const std::vector<Address>& peers);
std::string fault_del_line(int token);
std::string stats_request_line();
std::string stop_line();

std::optional<Command> parse_command(std::string_view line, std::string& error);

// ---------------------------------------------------------------------------
// Stream plumbing

/// Incremental line framer over a byte stream: feed reads in, pull complete
/// lines (without the terminator) out.
class LineBuffer {
 public:
  void append(const char* data, std::size_t n) { buf_.append(data, n); }
  /// Next complete line, or nullopt until one arrives.
  std::optional<std::string> next_line();
  bool empty() const { return buf_.empty(); }

 private:
  std::string buf_;
};

/// Thread-safe whole-line writer: appends '\n' and loops until the write
/// completes (SOCK_STREAM may short-write). Returns false once the peer is
/// gone (EPIPE/ECONNRESET) — callers treat that as the process having died,
/// not an error. Both sides ignore SIGPIPE.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}
  bool write_line(std::string_view line);

 private:
  int fd_;
  std::mutex mu_;
};

}  // namespace lifeguard::live
