// Per-node Runtime implementation backed by the simulator, including the
// anomaly semantics the paper's evaluation is built on (§V-D):
//
// While a node is "blocked" (anomalous):
//   * outbound sends are queued — the real agent's goroutines are stuck
//     inside sendto(); the packets leave (with fresh network latency) when
//     the anomaly ends;
//   * inbound datagrams are queued unprocessed — received by the kernel but
//     never read by the blocked process — and are handled, in arrival order,
//     when the anomaly ends (subject to a receive-buffer cap, mirroring a
//     UDP socket buffer: overflow is dropped);
//   * timers still fire — Go runtime timers are unaffected by a goroutine
//     blocked in I/O. This is precisely what lets a slow member's suspicion
//     timeouts expire and produce false positives.
//
// Inbound processing is additionally rate-limited: each message costs
// `msg_proc_cost` of the node's (virtual) CPU once a backlog exists. A node
// that cycles between long blocks and millisecond open windows therefore
// drains only a handful of messages per window — so queued refutations and
// acks can lag the suspicion timers by many cycles, which is the paper's
// false-positive mechanism. Nodes with an empty queue process packets
// immediately (the healthy fast path).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "runtime/runtime.h"

namespace lifeguard::sim {

class Simulator;

class SimRuntime final : public Runtime {
 public:
  SimRuntime(Simulator& sim, int node_index, Address addr, Rng rng,
             Duration msg_proc_cost, std::size_t recv_buffer_bytes);

  // Runtime interface.
  TimePoint now() const override;
  TimerId schedule(Duration delay, Task fn) override;
  void cancel(TimerId id) override;
  void send(const Address& to, std::vector<std::uint8_t> payload,
            Channel channel) override;
  Rng& rng() override { return rng_; }
  bool blocked() const override { return blocked_; }
  std::vector<std::uint8_t> acquire_buffer() override;
  NameIndex& names() override;

  // Simulator-facing.
  void attach(PacketHandler* handler, std::function<void()> on_unblock);
  /// Deliver a datagram that has traversed the network.
  void deliver(const Address& from, std::vector<std::uint8_t> payload,
               Channel channel);
  void set_blocked(bool blocked);
  /// The host process died: its kernel state dies with it. Drops the stuck
  /// outbound sends and the unread inbound backlog, and clears any block so
  /// a later anomaly-end cannot flush traffic from the dead incarnation.
  /// (restart_node reuses this runtime for the fresh process.)
  void reset_on_crash();
  const Address& address() const { return addr_; }
  int node_index() const { return node_; }
  /// Cap on queued unprocessed inbound bytes while blocked (socket buffer).
  void set_recv_buffer_limit(std::size_t bytes) { recv_buffer_limit_ = bytes; }
  std::int64_t inbound_dropped() const { return inbound_dropped_; }
  std::size_t backlog() const { return pending_in_.size(); }

 private:
  void schedule_drain();
  void drain_one();
  struct PendingPacket {
    Address peer;
    std::vector<std::uint8_t> payload;
    Channel channel;
  };

  Simulator& sim_;
  int node_;
  Address addr_;
  Rng rng_;
  PacketHandler* handler_ = nullptr;
  std::function<void()> on_unblock_;

  bool blocked_ = false;
  Duration msg_proc_cost_;
  bool drain_scheduled_ = false;
  std::deque<PendingPacket> pending_out_;
  std::deque<PendingPacket> pending_in_;
  std::size_t pending_in_bytes_ = 0;
  std::size_t recv_buffer_limit_ = 8 * 1024 * 1024;
  std::int64_t inbound_dropped_ = 0;
};

}  // namespace lifeguard::sim
