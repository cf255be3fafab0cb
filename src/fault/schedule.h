// Lowering a fault::Timeline into the one action schedule both backends run.
//
// lower() resolves every entry's victims and expands the per-kind schedule
// shapes ahead of time into a flat, time-sorted list of primitive actions.
// The simulator executes it with one event-queue callback per action
// (fault/injector.h); the live tier fires each action at its wall-clock
// offset (live/runner.cc). The shapes, per kind:
//
//   block      block all victims at span start, unblock them at span end
//   interval   lock-step blocked-for-D / open-for-I cycles; a cycle begun
//              before span end runs to completion (§V-D2)
//   stress     per victim, a forked Rng staggers onset by up to 500 ms, then
//              draws log-uniform block/run spans (StressParams); a trailing
//              unblock at the first cycle start past span end leaves the
//              victim running
//   flapping   per victim, one random phase drawn from a full cycle, then
//              D/I cycles — unsynchronized, unlike interval
//   churn      per victim (never node 0, the rejoin seed), one random phase,
//              then crash / restart-after-downtime cycles until span end; the
//              restart of the last crash still happens
//   partition  the victims split off at span start and re-merge at span end
//   network    the entry's link-fault overlay on every victim for the span
//
// Every entry also gets fault-start / fault-end markers for the merged event
// stream. Rng draws happen in a fixed order — entries in order; per entry the
// victim draw, then the per-kind draws — so a (timeline, Rng state) pair
// always lowers to the same schedule. The simulator passes its own Rng, which
// keeps every golden run bit-identical; the live tier passes one seeded from
// the scenario, so its victims match the simulator's in distribution only.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/fault.h"

namespace lifeguard::fault {

enum class ActionKind : std::uint8_t {
  kFaultStart,    ///< the entry's span opened (marker; no nodes)
  kFaultEnd,      ///< the entry's span closed (marker; no nodes)
  kBlock,         ///< nodes' protocol I/O stalls (live: SIGSTOP)
  kUnblock,       ///< nodes' I/O resumes (live: SIGCONT)
  kCrash,         ///< hard kill (live: SIGKILL)
  kRestart,       ///< a fresh process rejoins through node 0 (live: respawn)
  kPartitionAdd,  ///< nodes split off under the entry's partition claim
  kPartitionDel,  ///< the entry's claim is released; nodes re-merge
  kLinkFaultAdd,  ///< the entry's link-fault overlay goes on each node
  kLinkFaultDel,  ///< ...and comes off again
};

struct Action {
  Duration at{};  ///< offset from injection start (after the quiesce)
  ActionKind kind = ActionKind::kFaultStart;
  int entry = -1;  ///< owning Timeline entry index
  /// Afflicted nodes, applied in order. Block, interval, partition and
  /// network entries act on their whole victim list at once; stress,
  /// flapping and churn on one victim per action.
  std::vector<int> nodes;

  bool operator==(const Action&) const = default;
};

struct Schedule {
  /// Stable-sorted by `at`: equal-time actions keep generation order, so an
  /// entry's kFaultStart precedes its first same-instant block.
  std::vector<Action> actions;
  /// Per-entry victim sets, parallel to the Timeline.
  std::vector<std::vector<int>> entry_victims;
  /// Union of every entry's victims, first-occurrence order, deduplicated.
  std::vector<int> victims;
  /// Run the cluster this long from injection start so every entry
  /// completes and settles (FaultInjector::plan_total_run).
  Duration total_run{};
};

/// Lower `tl` for a cluster of `cluster_size` members observed for
/// `run_length`, drawing victims and phases from `rng`. The Timeline must
/// have passed validate() for that size.
Schedule lower(const Timeline& tl, int cluster_size, Duration run_length,
               Rng& rng);

/// Which partition group each node is in, as kPartitionAdd/kPartitionDel
/// actions execute. Each partition entry claims its own group (entry + 1)
/// for its nodes; when entries overlap on a node, it sits in its most recent
/// remaining claim's group and re-merges into group 0 once none is left.
class PartitionClaims {
 public:
  /// Apply a kPartitionAdd or kPartitionDel action.
  void apply(const Action& a);
  int group_of(int node) const;

 private:
  std::map<int, std::vector<int>> claims_;  ///< node -> claim stack
};

}  // namespace lifeguard::fault
