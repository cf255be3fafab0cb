// swim::Node — a complete SWIM + Lifeguard group-membership agent.
//
// One Node is one group member. It implements:
//   * SWIM's randomized round-robin probe failure detector with indirect
//     probes (ping / ping-req / ack) and the Suspicion subprotocol
//     (suspect / alive / dead with incarnation precedence),
//   * memberlist's extensions: dedicated gossip tick, reliable-channel
//     fallback direct probe, anti-entropy push-pull state sync, dead-node
//     retention and gossip-to-the-dead,
//   * the three Lifeguard components (paper §IV), each independently
//     switchable via Config: LHA-Probe (Local Health Multiplier scaling the
//     probe interval/timeout, plus the nack protocol), LHA-Suspicion
//     (dynamic suspicion timeouts with re-gossip of the first K independent
//     suspicions) and the Buddy System piggyback selector.
//
// All interaction with the environment goes through Runtime; the node is
// single-threaded and never blocks. Incoming datagrams enter through
// on_packet(); membership transitions and probe stages exit through the
// agent's one observer (membership::Agent::set_observer).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logger.h"
#include "common/metrics.h"
#include "common/types.h"
#include "membership/agent.h"
#include "obs/registry.h"
#include "proto/broadcast.h"
#include "proto/wire.h"
#include "runtime/runtime.h"
#include "swim/config.h"
#include "swim/events.h"
#include "swim/local_health.h"
#include "swim/membership.h"
#include "swim/piggyback.h"
#include "swim/suspicion.h"

namespace lifeguard::swim {

class Node : public membership::Agent {
 public:
  /// Membership transitions are reported to the observer installed with
  /// set_observer().
  Node(std::string name, Address addr, Config cfg, Runtime& rt);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---- lifecycle (membership::Agent) ----
  /// Marks self alive and begins the probe / gossip / push-pull schedules.
  void start() override;
  /// Initiates a push-pull join exchange with each seed address.
  void join(const std::vector<Address>& seeds) override;
  /// Graceful leave: broadcasts a dead-about-self (left) message. The node
  /// keeps running so the intent disseminates; call stop() afterwards.
  void leave() override;
  /// Cancels all timers; the node goes quiet. Idempotent.
  void stop() override;
  bool running() const override { return running_; }

  // ---- runtime callbacks ----
  void on_packet(const Address& from, std::span<const std::uint8_t> payload,
                 Channel channel) override;
  /// Invoked by the simulator when an injected anomaly ends; re-enables the
  /// stalled probe/gossip loops.
  void on_unblocked() override;

  // ---- introspection ----
  const std::string& name() const override { return name_; }
  const Address& address() const override { return addr_; }
  const Config& config() const { return cfg_; }
  const MembershipTable& members() const { return table_; }
  const LocalHealth& local_health() const { return health_; }
  std::uint64_t incarnation() const { return incarnation_; }
  Metrics& metrics() override { return metrics_; }
  const Metrics& metrics() const override { return metrics_; }
  Logger& logger() { return log_; }
  /// Convenience for tests/harness: this node's view of `member`'s state, or
  /// nullopt when unknown.
  std::optional<MemberState> state_of(const std::string& member) const;
  std::size_t pending_broadcasts() const { return bcast_.pending(); }
  /// Read-only view of the gossip queue (checking layer: retransmit bound).
  const proto::BroadcastQueue& broadcasts() const { return bcast_; }
  /// Typed view over metrics() plus the live gauges samplers read.
  const obs::NodeMetrics& observed() const { return obs_; }

  /// Test-only planted defect ("swim:plant=drop-refute"): the node never
  /// refutes suspicion or death gossip about itself, so a healthy member
  /// stays dead in every other view — the dropped-refute bug the fuzzer's
  /// planted regression suite must rediscover. Default off; never enable
  /// outside tests.
  void plant_drop_refute(bool enabled) { plant_drop_refute_ = enabled; }

  // ---- membership::Agent views ----
  int active_members() const override { return table_.num_active(); }
  std::vector<std::string> active_view() const override;
  int suspect_count() const override;
  int dead_count() const override;
  double health_score() const override {
    return static_cast<double>(health_.score());
  }
  std::size_t pending_broadcast_count() const override {
    return bcast_.pending();
  }
  std::int64_t gossip_transmits_total() const override {
    return bcast_.total_transmits();
  }

 private:
  // ---- outbound (node.cc) ----
  /// Encode `control` (either message form) plus piggybacked gossip into one
  /// compound datagram and transmit it. Gossip frames precede the control
  /// frame so a refutation triggered by a buddy suspect is processed before
  /// the ping it rides on. `ping_target` names a ping's target; it is a null
  /// view for any other message.
  template <class Control>
  void send_message(const Address& to, Channel ch, const Control& control,
                    std::string_view ping_target = {});
  /// send_message's non-template half, for the control frame in frame_.
  void send_control(const Address& to, Channel ch,
                    std::string_view ping_target);
  /// Pure gossip datagram (dedicated gossip tick); no-op if nothing queued.
  void send_gossip(const Address& to);
  void count_sent(const char* type, std::size_t bytes, Channel ch);
  /// Enqueue a state update (either message form) for gossip
  /// dissemination.
  template <class Update>
  void broadcast(std::string_view member, const Update& update);

  // ---- schedules (node.cc) ----
  void schedule_ticks();
  void gossip_tick();
  /// One fan-out round of pure gossip packets (shared by the tick and the
  /// unblock catch-up).
  void gossip_round();
  void push_pull_tick();
  /// One anti-entropy exchange with a random peer (tick / unblock catch-up).
  void push_pull_round();
  /// One push-pull join request to every stored seed.
  void send_join_requests();
  /// Re-sends the join exchange until a full sync response has merged
  /// (memberlist callers retry a failed Join).
  void join_retry_tick();
  /// Periodic reconnect attempt: push-pull with a random dead member so
  /// healed partitions re-merge (Serf-style).
  void reconnect_tick();
  void housekeeping_tick();
  void cancel_timer(TimerId& id);

  // ---- probe pipeline (node_probe.cc) ----
  void probe_tick();
  /// Select the next round-robin target and begin probing it, if no probe is
  /// already in flight.
  void start_probe_once();
  void begin_probe(Member& target);
  void probe_timeout_expired();
  void launch_indirect();
  void finish_probe();
  Duration scaled_probe_interval() const;
  Duration scaled_probe_timeout() const;
  // Inbound handlers take views into the datagram (proto/wire.h), valid
  // until on_packet returns: whatever a handler keeps, it copies.
  void handle_ping(const Address& from, const proto::PingView& p, Channel ch);
  void handle_ping_req(const proto::PingReqView& p, Channel ch);
  void handle_ack(const proto::AckView& a);
  void handle_nack(const proto::NackView& n);

  // ---- state machine (node_handlers.cc) ----
  void on_alive_msg(const proto::AliveView& a);
  void on_suspect_msg(const proto::SuspectView& s);
  void on_dead_msg(const proto::DeadView& d);
  void start_suspicion(Member& m, std::uint64_t incarnation,
                       std::string_view from);
  void arm_suspicion_timer(Suspicion& susp);
  void on_suspicion_timeout(const std::string& member);
  void cancel_suspicion(std::string_view member);
  /// Gossip a higher-incarnation alive about self; bumps local health.
  void refute(std::uint64_t suspected_incarnation);
  void emit(EventType type, const Member& m, std::string_view origin,
            bool originated);
  /// Encoded suspect frame about `target` iff we currently suspect it
  /// (Buddy System priority frame).
  std::optional<std::vector<std::uint8_t>> buddy_frame(
      std::string_view target);

  // ---- anti-entropy (node_sync.cc) ----
  void handle_push_pull(const proto::PushPullView& p);
  /// Send this node's whole table to `to` as one push-pull, encoded
  /// straight from the table (requests, join requests and responses).
  void send_push_pull(const Address& to, bool is_response, bool join);
  void merge_remote_state(const proto::PushPullView& p);

  // ---- data ----
  std::string name_;
  Address addr_;
  Config cfg_;
  Runtime& rt_;

  MembershipTable table_;
  proto::BroadcastQueue bcast_;
  /// Encode buffer for broadcast() and send_message(): the queue and the
  /// datagram each copy the frame, so one buffer serves every frame.
  std::vector<std::uint8_t> frame_;
  std::unique_ptr<PiggybackSelector> piggyback_;
  LocalHealth health_;
  Logger log_;
  Metrics metrics_;
  /// Typed facade over metrics_: every protocol-path counter/histogram is
  /// resolved once here, so hot paths bump pointers instead of doing
  /// string-keyed map lookups (this subsumes the hand-rolled Counter*
  /// caches the node used to carry).
  obs::NodeMetrics obs_;

  std::uint64_t incarnation_ = 0;
  std::uint32_t next_seq_ = 1;
  bool running_ = false;
  bool leaving_ = false;
  bool plant_drop_refute_ = false;

  /// In-flight direct/indirect probe state for the current protocol period.
  struct ProbeState {
    std::uint32_t seq = 0;
    std::string target;
    /// When the direct ping left (virtual time in sim): the RTT baseline.
    TimePoint started{};
    bool acked = false;
    bool indirect_started = false;
    int nacks_expected = 0;
    int nacks_received = 0;
    /// Period ended while the runtime was blocked: the probe goroutine is
    /// still stuck in send(), so the outcome is evaluated at unblock.
    bool pending_finish = false;
    /// Ack timeout expired while blocked: the indirect stage could not be
    /// launched (goroutine stuck); it launches at unblock.
    bool pending_indirect = false;
    TimerId timeout_timer = kInvalidTimer;
    TimerId period_timer = kInvalidTimer;
  };
  std::optional<ProbeState> probe_;
  /// Set when a tick fired while the runtime was anomaly-blocked: models the
  /// probe/gossip goroutine stuck in send(); cleared on unblock.
  bool probe_stalled_ = false;
  bool gossip_stalled_ = false;
  /// Ticks that fired while blocked leave one pending tick behind (Go ticker
  /// semantics): the corresponding loop runs once, promptly, at unblock.
  bool probe_tick_missed_ = false;
  bool gossip_tick_missed_ = false;

  /// Relay bookkeeping for ping-req service: our ping seq -> origin.
  struct RelayState {
    std::uint32_t origin_seq = 0;
    Address origin_addr;
    Channel channel = Channel::kUdp;
    bool acked = false;
    bool nack_wanted = false;
    TimerId nack_timer = kInvalidTimer;
    TimerId expire_timer = kInvalidTimer;
  };
  std::unordered_map<std::uint32_t, RelayState> relays_;

  /// Looked up by std::string_view (a member name in a datagram) without
  /// building a key string.
  std::unordered_map<std::string, Suspicion, NameHash, std::equal_to<>>
      suspicions_;

  /// Seeds of the most recent join(), kept for the retry loop; join_synced_
  /// flips once any push-pull response merges, which ends the retries.
  std::vector<Address> join_seeds_;
  bool join_synced_ = false;

  TimerId probe_tick_timer_ = kInvalidTimer;
  TimerId gossip_tick_timer_ = kInvalidTimer;
  TimerId push_pull_timer_ = kInvalidTimer;
  TimerId reconnect_timer_ = kInvalidTimer;
  TimerId join_retry_timer_ = kInvalidTimer;
  TimerId housekeeping_timer_ = kInvalidTimer;
};

template <class Control>
void Node::send_message(const Address& to, Channel ch, const Control& control,
                        std::string_view ping_target) {
  BufWriter w(std::move(frame_));
  proto::encode(control, w);
  frame_ = std::move(w).take();
  send_control(to, ch, ping_target);
}

template <class Update>
void Node::broadcast(std::string_view member, const Update& update) {
  BufWriter w(std::move(frame_));
  proto::encode(update, w);
  bcast_.queue(member, w.bytes());
  frame_ = std::move(w).take();
  obs_.gossip_pending().set(static_cast<double>(bcast_.pending()));
}

}  // namespace lifeguard::swim
