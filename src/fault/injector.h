// FaultInjector — executes a fault::Timeline on the simulator.
//
//   * plan_total_run() computes how long the run must last so every entry
//     completes and settles — pure arithmetic over the Timeline, shared by
//     both backends through fault::lower().
//   * inject(sim::Simulator&) lowers the Timeline with the simulator's own
//     Rng (fault/schedule.h) and schedules one event-queue callback per
//     action. Partition entries get a distinct partition group each; network
//     kinds install and remove fault::LinkFault overlays at span boundaries.
//
// The live tier executes the same lowered schedule with signals and the
// userspace netem shim (live/runner.cc); see DESIGN.md ("Fault layer").
#pragma once

#include "common/types.h"
#include "fault/fault.h"
#include "fault/schedule.h"

namespace lifeguard {
class Cluster;
}

namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::fault {

class FaultInjector {
 public:
  /// How long (from injection start) a run over `tl` must last, given the
  /// scenario's observation window `run_length`. Per entry:
  ///   block/network kinds: the span itself;
  ///   interval: the span rounded up to whole cycles, + 1 s drain;
  ///   stress: the span + 2 s; partition: + 1 s after the heal-by window;
  ///   flapping: + one blocked period + 1 s (a phase-shifted final cycle);
  ///   churn: + one downtime + 2 s (the final restart and its rejoin).
  static Duration plan_total_run(const Timeline& tl, Duration run_length);

  /// Lower `tl` with the simulator's Rng and schedule every action onto its
  /// event queue at `t0 + action.at`. Does not run the clock — the caller
  /// runs sim.run_until(t0 + schedule.total_run). The Timeline must have
  /// passed validate() for the simulator's cluster size.
  Schedule inject(sim::Simulator& sim, const Timeline& tl, TimePoint t0,
                  Duration run_length) const;

  /// Cluster-facade convenience: injects into cluster.simulator() starting
  /// at the current virtual time. Throws std::invalid_argument on the UDP
  /// backend, which cannot execute fault timelines.
  Schedule inject(Cluster& cluster, const Timeline& tl,
                  Duration run_length) const;
};

}  // namespace lifeguard::fault
