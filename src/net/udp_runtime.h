// Real-socket Runtime: one thread per node, a POSIX UDP socket and a timer
// heap. Used by the examples to run a live cluster on localhost.
//
// Substitution note (documented in DESIGN.md): memberlist's TCP channel
// (push-pull sync, fallback probe) is carried over the same UDP socket with
// a one-byte channel prefix. On loopback this preserves the semantics that
// matter to the protocol — a distinct lossless-ish channel with its own
// message types — without a TCP listener per node. Datagram size is capped
// at 60 KiB, ample for push-pull state of thousands of members.
//
// Threading model: the protocol node runs entirely on the runtime's loop
// thread. External control (start/join/leave/stop) must be injected with
// post(). schedule()/cancel()/send() may only be called from the loop thread
// (i.e. from node code or posted tasks).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/names.h"
#include "common/rng.h"
#include "common/types.h"
#include "runtime/runtime.h"

namespace lifeguard::net {

class FaultFilter;

/// Current CLOCK_MONOTONIC-style reading in nanoseconds — the raw value
/// now() is derived from. Exposed so a parent process can capture one epoch
/// and hand it to every worker (set_epoch_ns), putting a whole multi-process
/// cluster on a single comparable time base.
std::int64_t steady_now_ns();

class UdpRuntime final : public Runtime {
 public:
  /// Binds a UDP socket on 127.0.0.1:`port` (port 0 picks a free port).
  /// Throws std::runtime_error on socket errors.
  UdpRuntime(std::uint16_t port, std::uint64_t seed);
  ~UdpRuntime() override;

  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  /// The address the socket actually bound (loopback ip + resolved port).
  Address local_address() const { return local_; }

  /// Rebase now()'s origin to a steady_now_ns() reading captured elsewhere
  /// (e.g. by the live tier's parent process), so timestamps from several
  /// runtimes — across processes — are directly comparable. Call before
  /// start().
  void set_epoch_ns(std::int64_t epoch_ns) { epoch_ns_ = epoch_ns; }

  /// Install (or clear, with nullptr) the per-datagram netem shim consulted
  /// by send() and the receive path. The filter must outlive the runtime (or
  /// be cleared first) and is invoked on the loop thread only. Install
  /// before start(), or from a posted task.
  void set_fault_filter(FaultFilter* filter) { filter_ = filter; }

  /// Attach the packet handler, then start the loop thread.
  void start(PacketHandler* handler);
  /// Run `fn` on the loop thread (thread-safe; may be called from anywhere).
  void post(std::function<void()> fn);
  /// Stop the loop thread and join it. Idempotent.
  void shutdown();

  // Runtime interface (loop thread only).
  TimePoint now() const override;
  TimerId schedule(Duration delay, Task fn) override;
  void cancel(TimerId id) override;
  void send(const Address& to, std::vector<std::uint8_t> payload,
            Channel channel) override;
  Rng& rng() override { return rng_; }
  NameIndex& names() override { return names_; }

 private:
  struct Timer {
    TimePoint at;
    TimerId id;
    Task fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  void loop();
  void drain_socket();
  void run_due_timers();
  Duration time_to_next_timer() const;
  void raw_send(const Address& to, const std::vector<std::uint8_t>& framed);
  void deliver(const Address& from, std::vector<std::uint8_t> payload,
               Channel channel);

  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  Address local_;
  Rng rng_;
  PacketHandler* handler_ = nullptr;
  FaultFilter* filter_ = nullptr;

  std::thread thread_;
  std::atomic<bool> stopping_{false};

  std::mutex task_mu_;
  std::deque<std::function<void()>> tasks_;

  // Loop-thread-only state.
  NameIndex names_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::unordered_set<TimerId> cancelled_;
  TimerId next_timer_id_ = 1;
  std::int64_t epoch_ns_ = 0;  ///< steady-clock origin for now()
};

}  // namespace lifeguard::net
