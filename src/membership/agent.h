// membership::Agent — the protocol-agnostic seam over one group member.
//
// The simulator, cluster facade, checking layer and telemetry sampler used
// to talk to swim::Node directly; they now talk to this interface, so a
// Scenario can swap the failure-detection protocol (SWIM/Lifeguard, a
// centralized heartbeat coordinator, a static no-detection control) without
// touching any of that machinery. An Agent is one member: it owns its
// member table, reports what happens to it to one Observer (membership
// transitions as swim::MemberEvent, the shape the trace/check/obs layers
// already consume, and probe-round stages), and does all I/O through the
// sans-I/O Runtime it was created with.
//
// Contract highlights (docs/membership.md has the full version):
//   * Single-threaded: all entry points run on the owning runtime's thread.
//   * Deterministic: an agent draws randomness only from Runtime::rng(), so
//     a (scenario, seed) pair replays bit-identically.
//   * Events: state transitions are reported as swim::MemberEvent with
//     `originated` set only on transitions this agent itself decided (its
//     own detector firing), never when applying another member's report —
//     false-positive accounting (paper §V-F1) depends on this.
//   * Views: active_view() returns the names of members this agent currently
//     believes alive (itself included); convergence checking compares these
//     across the cluster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "runtime/runtime.h"
#include "swim/events.h"

namespace lifeguard::obs {
class DetectionMetrics;
}  // namespace lifeguard::obs

namespace lifeguard::membership {

/// The one way out of an agent: its membership transitions and, for
/// probe-based protocols, each stage of a probe round (direct ping -> ack
/// timeout -> indirect ping-req via relays -> nack feedback -> period-end
/// verdict), which the membership stream cannot show until it culminates in
/// a suspicion. The simulator installs one per node slot and publishes the
/// calls as check::TraceEvents to its attached sinks.
///
/// Observers are pure: they are called on the agent's runtime thread, must
/// not mutate the agent, and must draw no randomness — installing one never
/// perturbs a (scenario, seed) run. Every method defaults to a no-op so an
/// implementation overrides only what it cares about.
class Observer {
 public:
  virtual ~Observer() = default;

  /// A membership transition at the observed agent.
  virtual void on_member_event(const swim::MemberEvent& /*e*/) {}
  /// A direct probe of `target` began (one per protocol period with a
  /// target available).
  virtual void on_probe_start(const std::string& /*target*/) {}
  /// The probe completed successfully; `rtt` is ping-to-ack round-trip time.
  virtual void on_probe_ack(const std::string& /*target*/, Duration /*rtt*/) {}
  /// The ack timeout expired; the indirect stage (ping-req via relays, plus
  /// the reliable-channel fallback) launched.
  virtual void on_probe_indirect(const std::string& /*target*/) {}
  /// The protocol period ended with no ack: the probe failed and a
  /// suspicion follows.
  virtual void on_probe_fail(const std::string& /*target*/) {}
  /// A relay reported its own timeliness with a nack (Lifeguard §IV-A)
  /// while the probe of `target` was still unresolved.
  virtual void on_probe_nack(const std::string& /*target*/,
                             std::string_view /*relay*/) {}
};

class Agent : public PacketHandler {
 public:
  ~Agent() override = default;

  // ---- lifecycle ----
  /// Marks self alive and starts the protocol's schedules (probe loops,
  /// heartbeat timers, ...). Idempotent protocols may ignore a restart.
  virtual void start() = 0;
  /// Introduces this agent to the group via the seed addresses. Protocols
  /// without a join handshake may treat this as a no-op.
  virtual void join(const std::vector<Address>& seeds) = 0;
  /// Graceful departure intent; the agent keeps running so the intent can
  /// disseminate. Call stop() afterwards.
  virtual void leave() = 0;
  /// Cancels all timers; the agent goes quiet. Idempotent.
  virtual void stop() = 0;
  virtual bool running() const = 0;

  // ---- runtime callbacks ----
  // on_packet() is inherited from PacketHandler.
  /// Invoked when an injected anomaly that was blocking this agent's I/O
  /// ends; protocols with stalled loops resume them here.
  virtual void on_unblocked() = 0;

  // ---- identity ----
  virtual const std::string& name() const = 0;
  virtual const Address& address() const = 0;

  // ---- observation ----
  /// Install this agent's one observer; nullptr detaches. The observer must
  /// outlive the agent or be detached first.
  void set_observer(Observer* o) { observer_ = o; }

  // ---- membership view ----
  /// Members this agent currently believes alive, itself included.
  virtual int active_members() const = 0;
  /// Names of those members, in no particular order.
  virtual std::vector<std::string> active_view() const = 0;
  /// Members currently in the suspect limbo state (0 for protocols without
  /// a suspicion stage).
  virtual int suspect_count() const { return 0; }
  /// Members this agent has declared failed.
  virtual int dead_count() const { return 0; }

  // ---- telemetry ----
  virtual Metrics& metrics() = 0;
  virtual const Metrics& metrics() const = 0;
  /// Lifeguard local-health score (0 for protocols without one).
  virtual double health_score() const { return 0.0; }
  /// Depth of the gossip/dissemination queue (0 when there is none).
  virtual std::size_t pending_broadcast_count() const { return 0; }
  /// Total piggybacked gossip transmissions (0 when there is no gossip).
  virtual std::int64_t gossip_transmits_total() const { return 0; }
  /// Typed view of the backend-generic detection metrics (heartbeat
  /// counters, coordinator RTT), or nullptr when the protocol does not
  /// maintain them (swim's probe pipeline has its own typed facade).
  virtual const obs::DetectionMetrics* detection() const { return nullptr; }

 protected:
  /// What the agent reports to; nullptr when nothing observes it.
  Observer* observer_ = nullptr;
};

}  // namespace lifeguard::membership
