// Typed per-node metric registry — the telemetry layer's write side.
//
// common/metrics.h remains the storage (a name -> Counter/Histogram map that
// the harness aggregates and campaigns reset per trial); NodeMetrics is a
// typed facade over one node's registry that resolves every fixed-name
// metric exactly once, at bind time. Protocol hot paths then bump plain
// pointers instead of doing string-keyed map lookups — this replaces the
// ad-hoc `metrics_.counter("...")` calls and hand-rolled Counter* caches
// that had accreted in swim::Node.
//
// Label dimensions are encoded the way the rest of the repo already names
// metrics: the node id is the registry itself (one Metrics per node), the
// message kind and channel are dotted suffixes ("net.sent.ping",
// "net.sent_ch.udp") and the probe phase is the counter name
// ("probe.started", "probe.acked", ...). Everything here is lock-free by
// construction: a node's registry is touched only from its runtime thread,
// and no method draws randomness or reads a clock. Levels (LHM, gossip-queue
// depth) are not kept here: samplers (obs/sampler.h) read them through
// membership::Agent.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"

namespace lifeguard::obs {

/// The net.* counters every backend keeps, resolved in `m` (net.sent_ch.<ch>
/// only when `per_channel`): one count_sent() keeps harness message-load
/// accounting backend-uniform.
class NetMetrics {
 public:
  NetMetrics(Metrics& m, bool per_channel);

  /// One outbound datagram: bumps net.msgs_sent / net.bytes_sent, the
  /// per-kind "net.sent.<type>" counter and, if resolved, the per-channel
  /// one. `type` must be a string literal (pointer identity keys the
  /// per-kind cache).
  void count_sent(const char* type, std::size_t bytes, Channel ch);
  void count_received(std::size_t bytes);
  Counter& malformed() { return *malformed_; }

 private:
  Metrics* metrics_;
  Counter* msgs_sent_;
  Counter* bytes_sent_;
  Counter* msgs_received_;
  Counter* bytes_received_;
  Counter* malformed_;
  Counter* sent_ch_[2] = {};  ///< by Channel; null unless per_channel
  /// Per-message-kind counters, keyed by literal pointer identity (a
  /// duplicated literal only costs one redundant entry aimed at the same
  /// counter).
  std::vector<std::pair<const char*, Counter*>> sent_type_;
};

class NodeMetrics : public NetMetrics {
 public:
  /// Resolves every fixed-name counter and histogram in `m`. Counter
  /// references are node-stable (std::map) for the registry's lifetime, so
  /// the pointers never dangle. Eager resolution means the names exist (at
  /// zero) even when an event never fires; counter_value() reads the same
  /// either way.
  explicit NodeMetrics(Metrics& m);

  // ---- probe pipeline, labelled by phase ----
  Counter& probe_started() { return *probe_started_; }
  Counter& probe_indirect() { return *probe_indirect_; }
  Counter& probe_failed() { return *probe_failed_; }
  Counter& probe_missed_nack() { return *probe_missed_nack_; }
  Counter& probe_acked() { return *probe_acked_; }
  Counter& probe_success() { return *probe_success_; }
  Counter& probe_nack_received() { return *probe_nack_received_; }
  Counter& probe_relayed() { return *probe_relayed_; }
  Counter& probe_nack_sent() { return *probe_nack_sent_; }
  Counter& probe_misrouted_ping() { return *probe_misrouted_ping_; }
  Counter& probe_stale_ack() { return *probe_stale_ack_; }
  Counter& probe_ack_forwarded() { return *probe_ack_forwarded_; }
  /// Round-trip time of acked direct probes, in (virtual) microseconds.
  Histogram& probe_rtt_us() { return *probe_rtt_us_; }

  // ---- membership state machine ----
  Counter& join_learned() { return *join_learned_; }
  Counter& refuted() { return *refuted_; }
  Counter& resurrected() { return *resurrected_; }
  Counter& dead_declared() { return *dead_declared_; }
  Counter& dead_learned() { return *dead_learned_; }
  Counter& left_learned() { return *left_learned_; }
  Counter& refuted_death() { return *refuted_death_; }
  Counter& refutations() { return *refutations_; }
  Counter& leaves() { return *leaves_; }
  Counter& reclaimed() { return *reclaimed_; }
  Counter& buddy_prioritized() { return *buddy_prioritized_; }

  // ---- suspicion subprotocol ----
  Counter& suspicion_started() { return *suspicion_started_; }
  Counter& suspicion_confirmed() { return *suspicion_confirmed_; }
  Histogram& suspicion_confirmations_at_death() {
    return *suspicion_confirmations_at_death_;
  }
  Histogram& suspicion_lifetime_s() { return *suspicion_lifetime_s_; }

  // ---- anti-entropy ----
  Counter& sync_received() { return *sync_received_; }
  Counter& reconnect_attempts() { return *reconnect_attempts_; }

 private:
  Counter* probe_started_;
  Counter* probe_indirect_;
  Counter* probe_failed_;
  Counter* probe_missed_nack_;
  Counter* probe_acked_;
  Counter* probe_success_;
  Counter* probe_nack_received_;
  Counter* probe_relayed_;
  Counter* probe_nack_sent_;
  Counter* probe_misrouted_ping_;
  Counter* probe_stale_ack_;
  Counter* probe_ack_forwarded_;
  Histogram* probe_rtt_us_;

  Counter* join_learned_;
  Counter* refuted_;
  Counter* resurrected_;
  Counter* dead_declared_;
  Counter* dead_learned_;
  Counter* left_learned_;
  Counter* refuted_death_;
  Counter* refutations_;
  Counter* leaves_;
  Counter* reclaimed_;
  Counter* buddy_prioritized_;

  Counter* suspicion_started_;
  Counter* suspicion_confirmed_;
  Histogram* suspicion_confirmations_at_death_;
  Histogram* suspicion_lifetime_s_;

  Counter* sync_received_;
  Counter* reconnect_attempts_;
};

/// Typed facade for the backend-generic detection metrics that heartbeat
/// protocols (membership/central.h) maintain: heartbeat traffic, missed
/// deadlines, and the member-observed coordinator round-trip. Same idiom as
/// NodeMetrics — every fixed-name metric resolves once at bind time and hot
/// paths bump plain pointers. The names feed the obs catalog ids 16..18
/// (obs/catalog.h); swim leaves them untouched, so the sampler only emits
/// those series for non-swim backends.
class DetectionMetrics : public NetMetrics {
 public:
  /// Resolves the net.* counters, without per-channel ones, and the rest.
  explicit DetectionMetrics(Metrics& m);

  Counter& heartbeat_sent() { return *heartbeat_sent_; }
  Counter& heartbeat_missed() { return *heartbeat_missed_; }
  /// Member-side heartbeat -> ack round-trip, in (virtual) microseconds.
  Histogram& coordinator_rtt_us() { return *coordinator_rtt_us_; }
  const Histogram& coordinator_rtt_us() const { return *coordinator_rtt_us_; }

 private:
  Counter* heartbeat_sent_;
  Counter* heartbeat_missed_;
  Histogram* coordinator_rtt_us_;
};

}  // namespace lifeguard::obs
