// The sans-I/O seam between the protocol and its environment.
//
// swim::Node is written entirely against this interface, so the identical
// protocol code runs (a) deterministically inside the discrete-event
// simulator and (b) over real UDP sockets. A Runtime is single-threaded from
// the node's point of view: all callbacks (timers, packets, unblock
// notifications) are delivered serially.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/names.h"
#include "common/rng.h"
#include "common/task.h"
#include "common/types.h"

namespace lifeguard {

/// Opaque timer handle. kInvalidTimer is never returned by schedule().
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time on this runtime's monotonic clock.
  virtual TimePoint now() const = 0;

  /// Run `fn` once after `delay`. Returns a handle usable with cancel().
  /// Scheduling with a non-positive delay fires on the next dispatch step,
  /// never synchronously (re-entrancy safety). Task (common/task.h) accepts
  /// any void() callable, move-only ones included, and keeps typical timer
  /// captures inline — the simulator schedules millions of these.
  virtual TimerId schedule(Duration delay, Task fn) = 0;

  /// Cancel a pending timer. Cancelling an already-fired or invalid handle is
  /// a no-op.
  virtual void cancel(TimerId id) = 0;

  /// Transmit a datagram. Ownership of the bytes transfers to the runtime.
  /// When this runtime is blocked by an anomaly, the send is queued and
  /// flushed on unblock (modelling a process stuck in sendto()).
  virtual void send(const Address& to, std::vector<std::uint8_t> payload,
                    Channel channel) = 0;

  /// Deterministic per-node random source.
  virtual Rng& rng() = 0;

  /// An empty byte buffer to build the next outbound datagram in. Runtimes
  /// with a recycling pool (the simulator) return spent delivery buffers
  /// here so steady-state messaging allocates nothing; the default is a
  /// fresh vector. Purely a capacity hint — contents and semantics of the
  /// buffer are the caller's.
  virtual std::vector<std::uint8_t> acquire_buffer() { return {}; }

  /// The name index (common/names.h) the node's table and gossip queue key
  /// members by: the simulator's one index, or a real runtime's own.
  virtual NameIndex& names() = 0;

  /// True while an injected anomaly is blocking this node's message I/O.
  /// The simulator uses this to model the paper's blocked send/recv
  /// instrumentation; real runtimes always return false.
  virtual bool blocked() const { return false; }
};

/// Receiver side of the seam: the node implements this, the runtime calls it.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void on_packet(const Address& from,
                         std::span<const std::uint8_t> payload,
                         Channel channel) = 0;
};

}  // namespace lifeguard
