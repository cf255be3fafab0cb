// Cluster event reporting.
//
// Every local membership state transition is reported as a MemberEvent to
// the agent's one observer (membership::Observer, installed with
// Agent::set_observer). `originated` distinguishes a *failure event* (this
// node's own suspicion timeout declared the member dead — what the paper
// counts as a false positive when the member is healthy) from mere
// dissemination (applying a gossiped dead). The event does not name the
// agent it happened at: whoever installs an observer knows which agent it
// watches. The simulator's per-node observer turns every event into a
// check::TraceEvent for its attached sinks (which is what
// harness::FailureAccounting counts).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace lifeguard::swim {

enum class EventType : std::uint8_t {
  kJoin = 0,     ///< previously unknown member became alive
  kAlive = 1,    ///< suspicion refuted / member recovered
  kSuspect = 2,  ///< member entered suspect state locally
  kFailed = 3,   ///< member declared dead (failure event)
  kLeft = 4,     ///< graceful leave
};

struct MemberEvent {
  TimePoint at{};
  EventType type = EventType::kJoin;
  std::string member;  ///< who the event is about
  std::string origin;  ///< originator (for suspect/failed gossip)
  std::uint64_t incarnation = 0;
  /// True when this node itself originated the transition (its own probe
  /// failure or suspicion timeout), false when applying received gossip.
  bool originated = false;
};

}  // namespace lifeguard::swim
