// Deterministic trace replay.
//
// replay() re-executes a recorded run — the engine is deterministic, so the
// (scenario, seed) pair *is* the execution — while recording a fresh trace,
// then verifies the replayed stream against the recording element by
// element. A match certifies the reproducer: the same events, at the same
// virtual times, in the same order, bit for bit. A divergence names the
// first differing element (an engine change, a perturbed seed, or a
// corrupted trace).
//
// A loaded trace carries the Scenario it was recorded from (check/trace.h),
// config and all, so `scenario_runner --replay FILE` works from the
// artifact alone: replay(t.scenario, t).
#pragma once

#include <string>

#include "check/trace.h"
#include "harness/scenario.h"

namespace lifeguard::check {

struct ReplayResult {
  /// The re-executed run (RunResult::checks carries re-checked verdicts
  /// when the trace was recorded with checks enabled).
  harness::RunResult result;
  /// The freshly recorded stream.
  Trace trace;
  /// True when the replayed stream equals the recording element-wise.
  bool matches = false;
  /// First divergence, rendered ("event 1234: recorded ..., replayed ...");
  /// empty when matches.
  std::string divergence;
};

/// Re-run `s` and verify against `recorded`. For a faithful replay `s` is
/// the scenario the trace was recorded from (`recorded.scenario`); tests
/// pass a perturbed one to see the divergence caught.
ReplayResult replay(const harness::Scenario& s, const Trace& recorded);

}  // namespace lifeguard::check
