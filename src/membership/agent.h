// membership::Agent — the protocol-agnostic seam over one group member.
//
// The simulator, cluster facade, checking layer and telemetry sampler used
// to talk to swim::Node directly; they now talk to this interface, so a
// Scenario can swap the failure-detection protocol (SWIM/Lifeguard, a
// centralized heartbeat coordinator, a static no-detection control) without
// touching any of that machinery. An Agent is one member: it owns its
// member table, reports what happens to it to one Observer as Event records
// (membership transitions and probe-round stages, in check::TraceEventKind's
// terms), and does all I/O through the sans-I/O Runtime it was created with.
//
// Contract highlights (docs/membership.md has the full version):
//   * Single-threaded: all entry points run on the owning runtime's thread.
//   * Deterministic: an agent draws randomness only from Runtime::rng(), so
//     a (scenario, seed) pair replays bit-identically.
//   * Events: a state transition is reported with `originated` set only
//     when this agent itself decided it (its own detector firing), never
//     when applying another member's report — false-positive accounting
//     (paper §V-F1) depends on this.
//   * Views: active_view() returns the names of members this agent currently
//     believes alive (itself included); convergence checking compares these
//     across the cluster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/events.h"
#include "common/metrics.h"
#include "common/types.h"
#include "runtime/runtime.h"

namespace lifeguard::obs {
class DetectionMetrics;
}  // namespace lifeguard::obs

namespace lifeguard::membership {

/// One record out of an agent: a membership transition (kJoin..kLeft) or,
/// for probe-based protocols, a stage of a probe round (kProbeStart..
/// kProbeNack: direct ping -> ack, or ack timeout -> indirect ping-req via
/// relays -> nack feedback -> period-end verdict), which the membership
/// stream cannot show until it culminates in a suspicion. The agent does
/// not name itself, and the record carries no time: whoever observes an
/// agent knows which one it watches and reads the clock it runs on.
/// check::trace_event_of turns a record into a check::TraceEvent.
struct Event {
  check::TraceEventKind kind = check::TraceEventKind::kJoin;
  /// The member the record is about: the transition's subject, the probe's
  /// target, or for kProbeNack the relay that sent the nack. A view valid
  /// only for the observer call.
  std::string_view member{};
  /// Membership transitions: who originated it (for suspect/failed gossip).
  /// Empty for probe stages. A view valid only for the observer call.
  std::string_view origin{};
  std::uint64_t incarnation = 0;
  /// True when this agent itself originated the transition (its own probe
  /// failure or suspicion timeout), false when applying received gossip.
  bool originated = false;
  /// kProbeAck: the probe round-trip time in microseconds. 0 otherwise.
  double value = 0.0;
};

/// The one way out of an agent. The simulator installs one per node slot and
/// publishes each record as a check::TraceEvent to its attached sinks.
///
/// Observers are pure: they are called on the agent's runtime thread, must
/// not mutate the agent, and must draw no randomness — installing one never
/// perturbs a (scenario, seed) run.
class Observer {
 public:
  virtual ~Observer() = default;
  virtual void on_event(const Event& e) = 0;
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
  /// Hand `e` to the observer, if one is installed.
  void report(const Event& e) const {
    if (observer_ != nullptr) observer_->on_event(e);
  }

  /// What the agent reports to; nullptr when nothing observes it.
  Observer* observer_ = nullptr;
};

}  // namespace lifeguard::membership
