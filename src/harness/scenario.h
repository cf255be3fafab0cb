// Declarative scenario API — the single entry point to the paper's
// evaluation methodology (§V) and beyond.
//
// A Scenario is a plain, reviewable value: cluster shape, protocol
// configuration, network model, seed, and a composable fault timeline. One
// engine, harness::run(Scenario), executes every kind — the paper's
// threshold, interval and CPU-stress anomalies as well as partition,
// flapping, churn and network-level faults, alone or composed.
//
// ScenarioRegistry::builtin() catalogs the paper's Fig. 1–3 and Table IV–VII
// setups plus the new scenario kinds under stable names, so tools
// (examples/scenario_runner --list / --scenario NAME) and tests run the
// exact same descriptors. The catalog is the committed scenarios/*.json.
//
// Validation is explicit and actionable: Scenario::validate() returns one
// message per defect ("timeline[0] (block): resolves to 12 victims, more
// than cluster_size (8)") and run() refuses invalid descriptors with a
// ScenarioError carrying all of them.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/events.h"
#include "check/spec.h"
#include "common/metrics.h"
#include "common/types.h"
#include "fault/fault.h"
#include "obs/catalog.h"
#include "sim/network.h"
#include "swim/config.h"

namespace lifeguard::harness {

// ---------------------------------------------------------------------------
// Scenario descriptor

struct Scenario {
  /// Stable identifier (registry key, --scenario flag). Lowercase kebab-case.
  std::string name;
  /// One-line human description.
  std::string summary;
  /// Paper anchor ("Fig. 1", "Table V", ...); empty for post-paper kinds.
  std::string paper_ref;

  int cluster_size = 64;
  /// Settling time before the fault timeline begins (paper: 15 s).
  Duration quiesce = sec(15);
  swim::Config config;
  /// Paper-testbed-like loopback latency and a small datagram loss rate.
  sim::NetworkParams network{usec(200), msec(2), 0.01};
  /// Virtual CPU cost per inbound message once a backlog exists.
  Duration msg_proc_cost = usec(5);
  /// Simulated kernel receive-buffer bound per node.
  std::size_t recv_buffer_bytes = 256 * 1024;
  /// Root of every random decision in the run: the cluster's Rng forks from
  /// it, so (scenario, seed) replays bit-identically.
  ///
  /// Seed-derivation contract (campaign.h): multi-trial engines derive each
  /// trial's seed as trial_seed(base_seed, axis_salts, rep) — a SplitMix64
  /// chain over descriptor coordinates only, never over execution state
  /// (thread ids, completion order, wall time). Trials share no mutable
  /// state (each run() builds its own cluster; Rng, Metrics and Config are
  /// instance-owned; ScenarioRegistry::builtin() is an immutable magic
  /// static), so concurrent trials are bit-identical to sequential ones.
  std::uint64_t seed = 1;

  /// What goes wrong: an ordered list of phased entries, each a Fault +
  /// VictimSelector active over [at, at + duration) after the quiesce.
  /// Overlap is allowed ("partition during CPU exhaustion"); empty is a
  /// healthy run.
  fault::Timeline timeline;
  /// Observation window measured from the end of the quiesce. The run lasts
  /// at least this long, and longer when an entry needs it to complete and
  /// settle (fault::FaultInjector::plan_total_run).
  Duration run_length = sec(60);

  /// Live protocol invariant checking (src/check). Disabled by default;
  /// enable with `checks = check::Spec::all()` (or a narrowed Spec) and the
  /// engine evaluates every invariant against the merged event stream,
  /// reporting verdicts in RunResult::checks. Checking is a pure
  /// observation: metrics are bit-identical with checks on or off.
  check::Spec checks;

  /// Telemetry snapshot cadence (obs::Sampler): every `metrics_interval` of
  /// virtual time the engine emits one cluster-wide set of kMetricSample
  /// trace events and appends them to RunResult::series. Zero (the default)
  /// disables sampling. Sampling is a pure observation: protocol Rng draws
  /// and RunResult metrics are bit-identical with sampling on or off.
  Duration metrics_interval{};

  /// Membership backend spec (membership::BackendRegistry): "swim" (the
  /// default — SWIM + Lifeguard), "central" / "central:miss=N" (coordinator
  /// heartbeats), "static" (fixed roster, no detection). Every part of the
  /// harness — fault timelines, campaigns, invariant checking, telemetry,
  /// trace record/replay — drives whichever backend is named here.
  /// SWIM-specific invariants auto-disable for non-swim backends; the sim
  /// tier only (live runs reject non-swim).
  std::string membership = "swim";

  /// `timeline` itself. Library code reads the field; this accessor stays
  /// because perfbench/lgbench.cc measures against it.
  const fault::Timeline& effective_timeline() const { return timeline; }

  /// Empty when the descriptor is runnable; otherwise one actionable message
  /// per defect.
  std::vector<std::string> validate() const;
};

/// Thrown by run() / ScenarioRegistry::add() on invalid descriptors.
/// what() joins all messages; errors() has them individually.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(std::vector<std::string> errors);
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Results

struct RunResult {
  std::string scenario_name;
  int cluster_size = 0;
  /// Union of every timeline entry's victim set (node indices,
  /// first-occurrence order). Detection/dissemination latency and the FP
  /// accounting treat all of them as "anomalous" members.
  std::vector<int> victims;

  // -- false positives (§V-F1) --
  std::int64_t fp_events = 0;          ///< FP: originated, healthy subject
  std::int64_t fp_healthy_events = 0;  ///< FP⁻: and healthy originator

  // -- true-positive latency, seconds (§V-F2) --
  std::vector<double> first_detect;  ///< one sample per detected victim
  std::vector<double> full_dissem;   ///< one sample per fully disseminated

  // -- message load (§V-F3) --
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;

  /// Full aggregated metrics for deeper inspection.
  Metrics metrics;

  /// Invariant verdicts (checked == false unless Scenario::checks.enabled).
  check::RunReport checks;

  /// Telemetry time series (empty unless Scenario::metrics_interval > 0).
  /// Campaigns keep the series even when per-trial metrics are reset.
  obs::Series series;
};

/// The engine: validate, build a simulated cluster through ClusterBuilder,
/// quiesce, inject the fault timeline, observe, and count the paper's
/// metrics off the merged event stream (FailureAccounting, accounting.h).
/// Throws ScenarioError when validate() is non-empty.
///
/// `sinks` observe the merged simulator + membership event stream (see
/// check/events.h) for the whole run — pass a check::TraceRecorder to
/// capture a replayable trace. Sinks are pure observers: results are
/// identical with or without them.
RunResult run(const Scenario& s,
              const std::vector<check::TraceSink*>& sinks = {});

// ---------------------------------------------------------------------------
// Backend dispatch

/// Where a scenario executes: the deterministic simulator (default) or the
/// live tier — real OS processes over real UDP (src/live). One descriptor,
/// two backends, one RunResult shape.
enum class Backend : std::uint8_t { kSim, kLive };

const char* backend_name(Backend b);
std::optional<Backend> backend_from_name(std::string_view name);

/// Cross-backend run options. The sim backend ignores everything but
/// `backend`; the live fields mirror live::RunOptions.
struct RunOptions {
  Backend backend = Backend::kSim;
  /// Live only: wall-clock ceiling (zero = derived from the scenario).
  Duration timeout{};
  /// Live only: worker binary override (empty = auto-discover).
  std::string node_binary;
  /// Live only: per-node stderr log directory (empty = no logs).
  std::string log_dir;
};

/// Backend-dispatching entry point: runs `s` on the simulator or the live
/// tier per `opts.backend`. Defined in src/live/runner.cc (the only place
/// that links both engines).
RunResult run(const Scenario& s, const RunOptions& opts,
              const std::vector<check::TraceSink*>& sinks = {});

// ---------------------------------------------------------------------------
// Registry

class ScenarioRegistry {
 public:
  /// The built-in catalog: every paper figure/table setup plus the new
  /// partition / flapping / churn kinds. Names are stable public API.
  /// Built on first use from the committed scenarios/*.json, which the
  /// build embeds in the order CMakeLists.txt lists (scenarios/README.md).
  /// Throws ScenarioError naming scenarios/<name>.json when a file is
  /// malformed or invalid, its `name` is not its filename stem, or it is
  /// listed twice.
  static const ScenarioRegistry& builtin();

  ScenarioRegistry() = default;

  /// Validates and inserts; throws ScenarioError on an invalid descriptor or
  /// a duplicate name.
  void add(Scenario s);
  /// nullptr when unknown.
  const Scenario* find(std::string_view name) const;
  std::vector<std::string> names() const;
  const std::vector<Scenario>& all() const { return scenarios_; }

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace lifeguard::harness
