// membership::CentralAgent — coordinator-based heartbeat failure detection.
//
// The classic centralized alternative the paper's gossip protocol is
// usually compared against: every member sends a periodic heartbeat to a
// coordinator (the member at index 0), which acks it and pushes full
// membership views to the group. Failure detection is a consecutive-miss
// count on both sides:
//   * the coordinator declares a member failed when no heartbeat arrives
//     for miss_threshold heartbeat intervals, and
//   * a member declares the *coordinator* failed after miss_threshold
//     consecutive unacked heartbeats (the coordinator is a fault-injectable
//     node like any other — crash it and watch the group go blind).
//
// Timing reuses the scenario Config: heartbeat interval = probe_interval,
// so every existing config axis sweeps this backend too; the miss threshold
// comes from the membership spec ("central:miss=N", default 3).
//
// Views are full snapshots pushed on every membership change and once per
// check tick (anti-entropy against datagram loss); members apply them as
// diffs and publish the resulting transitions as non-originated events, so
// the paper's false-positive accounting (only `originated` kFailed events
// count) attributes every detection to the node whose timer fired.
//
// Wire format (little-endian, one message per datagram, Channel::kUdp):
//   Join       u8 tag=1, u32 sender_index
//   Heartbeat  u8 tag=2, u32 sender_index, u32 seq
//   Ack        u8 tag=3, u32 seq
//   View       u8 tag=4, u32 count, count * { u32 index, u8 status
//              (0 alive / 1 failed), u64 incarnation }
// Decoding is total: malformed datagrams bump net.malformed and are dropped.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/types.h"
#include "membership/backend.h"
#include "obs/registry.h"
#include "runtime/runtime.h"

namespace lifeguard::membership {

class CentralAgent final : public Agent {
 public:
  CentralAgent(const AgentParams& params, Runtime& rt);
  ~CentralAgent() override;

  CentralAgent(const CentralAgent&) = delete;
  CentralAgent& operator=(const CentralAgent&) = delete;

  // ---- Agent ----
  void start() override;
  void join(const std::vector<Address>& seeds) override;
  void leave() override;
  void stop() override;
  bool running() const override { return running_; }
  void on_packet(const Address& from, std::span<const std::uint8_t> payload,
                 Channel channel) override;
  void on_unblocked() override {}
  const std::string& name() const override { return name_; }
  const Address& address() const override { return addr_; }
  int active_members() const override;
  std::vector<std::string> active_view() const override;
  int dead_count() const override;
  Metrics& metrics() override { return metrics_; }
  const Metrics& metrics() const override { return metrics_; }
  const obs::DetectionMetrics* detection() const override { return &det_; }

  bool is_coordinator() const { return index_ == 0; }

 private:
  /// One member as this agent knows it. Ordered map => deterministic view
  /// encoding and event order.
  struct Entry {
    std::uint64_t incarnation = 0;
    bool alive = true;
    TimePoint last_heartbeat{};  ///< coordinator side only
    Address addr{};              ///< coordinator side: learned from packets
  };

  // ---- shared ----
  void publish(check::TraceEventKind kind, std::uint32_t member_index,
               std::uint64_t incarnation, bool originated);
  void send_bytes(const Address& to, std::vector<std::uint8_t> bytes,
                  const char* type);
  static std::string member_name(std::uint32_t index);

  // ---- coordinator side ----
  void coordinator_start();
  void check_tick();
  /// Adds / revives `index` (join message or heartbeat from an unknown or
  /// failed member — the latter covers lost Join datagrams and restarts).
  /// Returns true when membership changed.
  bool admit(std::uint32_t index, const Address& from);
  void push_views();
  std::vector<std::uint8_t> encode_view();

  // ---- member side ----
  void heartbeat_tick();
  void handle_ack(std::uint32_t seq);
  void handle_view(BufReader& r);
  void coordinator_seen_alive();

  // ---- data ----
  std::string name_;
  Address addr_;
  std::uint32_t index_ = 0;
  int cluster_size_ = 0;
  Duration heartbeat_interval_{};
  int miss_threshold_ = 3;
  /// Test-only planted defect ("central:plant=refail"): the miss scan drops
  /// the already-failed guard and re-announces failed members every tick.
  bool plant_refail_ = false;

  Runtime& rt_;
  Metrics metrics_;
  obs::DetectionMetrics det_;

  bool running_ = false;
  /// Everyone this agent knows about, itself included, keyed by index.
  std::map<std::uint32_t, Entry> table_;

  // coordinator
  TimerId check_timer_ = kInvalidTimer;

  // member
  Address coordinator_addr_{};
  TimerId heartbeat_timer_ = kInvalidTimer;
  std::uint32_t next_seq_ = 1;
  std::uint32_t pending_seq_ = 0;
  TimePoint pending_sent_{};
  bool ack_outstanding_ = false;
  int consecutive_misses_ = 0;
};

}  // namespace lifeguard::membership
