// Delta-debugging fault-timeline shrinker.
//
// Given a scenario whose run violates an invariant, shrink() searches for a
// smaller scenario that still violates one of the *same* invariants: it
// repeatedly proposes reductions — drop a timeline entry, halve a victim
// set, halve a duration or onset, halve the observation window — re-runs
// each candidate (full deterministic engine run, same seed), and greedily
// accepts the first reduction that preserves the failure. The result is a
// seed-stable minimal reproducer: typically one or two entries that a human
// can read off.
//
// Determinism: every round generates its candidate list in a fixed order
// and accepts the lowest-index violating candidate. Candidates within a
// batch run concurrently (`jobs` — trials share nothing, exactly like the
// Campaign engine), but the accepted candidate depends only on the
// candidate order, so the minimal scenario is bit-identical at every jobs
// level.
#pragma once

#include <string>
#include <vector>

#include "harness/scenario.h"

namespace lifeguard::check {

struct ShrinkOptions {
  /// Concurrent candidate evaluations per batch (>= 1). Does not affect
  /// the result, only wall-clock.
  int jobs = 1;
  /// Accepted-reduction budget (each round accepts at most one).
  int max_rounds = 64;
  /// Durations are not halved below this (avoids grinding through
  /// microsecond tails that cannot change a verdict).
  Duration min_duration = msec(100);
  /// run_length is not halved below this.
  Duration min_run_length = sec(5);
};

struct ShrinkResult {
  /// The smallest still-violating scenario found (== the input scenario,
  /// checks-enabled, when nothing could be removed).
  harness::Scenario minimal;
  /// The violating run of `minimal`.
  harness::RunResult minimal_result;
  /// False when the input scenario did not violate anything — there is
  /// nothing to shrink and `minimal` is just the input.
  bool reproduced = false;
  /// Invariants the baseline violated; candidates must re-violate one.
  std::vector<std::string> target_invariants;
  int rounds = 0;
  /// Engine runs spent (baseline + candidate evaluations).
  int runs = 0;
  /// One line per accepted reduction ("drop entry 2: 4 -> 3 entries").
  std::vector<std::string> log;
};

/// Shrink `s`'s fault timeline (checks are force-enabled with Spec::all()
/// unless the scenario already configures them).
ShrinkResult shrink(const harness::Scenario& s, const ShrinkOptions& opts = {});

}  // namespace lifeguard::check
