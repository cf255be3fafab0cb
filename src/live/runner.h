// live::run — the multi-process counterpart of harness::run.
//
// Takes the exact same harness::Scenario descriptor and executes it against
// a cluster of real OS processes (live/process.h) exchanging real UDP
// datagrams on loopback, with the fault timeline lowered to the same action
// schedule the simulator runs (fault/schedule.h) and fired at wall-clock
// offsets, every worker's trace stream merged time-ordered (live/merge.h),
// and the same check::Checker / TraceSink observers the simulator path uses. Returns the same harness::RunResult,
// so tools and tests compare backends directly (docs/live-tier.md spells
// out which knobs and invariants apply on which backend).
//
// All wall-clock phases run on one shared CLOCK_MONOTONIC epoch captured at
// run start and handed to every worker, so "timestamp" means the same thing
// in all N+1 processes.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "check/events.h"
#include "common/types.h"
#include "harness/scenario.h"

namespace lifeguard::live {

struct RunOptions {
  /// Hard wall-clock ceiling for the whole run. Zero derives one from the
  /// scenario (spawn + quiesce + planned run + grace). On expiry every
  /// worker is SIGKILLed and TimeoutError is thrown — no orphans.
  Duration timeout{};
  /// Path to the live_node worker binary; empty uses find_live_node_binary().
  std::string node_binary;
  /// Directory for per-node stderr logs (created if missing); empty disables.
  std::string log_dir;
  /// How long one worker may take to report HELLO after fork/exec.
  Duration handshake_timeout = sec(10);
};

/// The run blew its wall-clock ceiling (workers wedged, host overloaded).
/// All workers have already been torn down when this is thrown.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error(what) {}
};

/// Locate the live_node worker binary: $LIFEGUARD_LIVE_NODE, then next to
/// the running executable, then ./live_node. Empty string when not found.
std::string find_live_node_binary();

/// Execute `s` against a real-process cluster. Throws harness::ScenarioError
/// on an invalid descriptor, std::runtime_error on spawn/handshake failure,
/// TimeoutError on the wall-clock ceiling.
harness::RunResult run(const harness::Scenario& s, const RunOptions& opts = {},
                       const std::vector<check::TraceSink*>& sinks = {});

}  // namespace lifeguard::live
