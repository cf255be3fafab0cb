// Parallel campaign engine: many trials of one declarative experiment.
//
// A Campaign is a value, like the Scenario it wraps: a base Scenario, a list
// of Axis sweeps (any Scenario field can be swept through an AxisPoint's
// apply function), a repetition count, a base seed, and a `jobs` parallelism
// level. run() expands the cartesian grid, derives one seed per trial with
// trial_seed() (SplitMix64 over the base seed, the grid point's axis salts
// and the repetition index — NOT over anything execution-dependent), and
// executes trials on a fixed-size worker pool. Trials share nothing: each
// builds its own simulated cluster, so results are bit-identical for every
// `jobs` value and independent of scheduling order.
//
// Reporters (see report.h) observe the run: progress() fires in completion
// order for live feedback; on_trial() fires strictly in trial-index order so
// streamed JSONL/CSV artifacts are byte-identical across jobs levels.
//
// Aggregation folds per-trial RunResults into per-grid-point statistics:
// Summary (count/mean/stddev/min/max/p50/p99) of the scalar metrics plus
// merged latency histograms — Student-t confidence intervals come from
// harness/stats.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "harness/scenario.h"
#include "obs/export.h"
#include "swim/config.h"

namespace lifeguard::harness {

class Reporter;       // report.h
struct TrialResult;   // below — Campaign::trial_sinks names it

// ---------------------------------------------------------------------------
// Axes

/// One value on a sweep axis: a display label, a seed salt, and a mutation
/// applied to the base Scenario when the grid is expanded.
struct AxisPoint {
  std::string label;
  /// Folded into trial_seed(). Give points of a *workload* axis distinct
  /// salts (different schedules per point) and points of a *configuration*
  /// axis identical salts (paired runs: every config sees the same anomaly
  /// schedule at the same grid point, sharpening %-of-baseline comparisons).
  std::uint64_t seed_salt = 0;
  std::function<void(Scenario&)> apply;
};

/// One protocol configuration under its paper name.
struct NamedConfig {
  std::string name;
  swim::Config config;
};

/// The five Table I configurations in paper order, with the given suspicion
/// tuning applied (α/β only affect configs with LHA-Suspicion; the SWIM
/// baseline's fixed timeout is always α = 5, β = 1).
std::vector<NamedConfig> table1_configs(double alpha = 5.0, double beta = 6.0);

/// A named sweep dimension. Factories cover the common Scenario fields; use
/// custom() to sweep anything else.
struct Axis {
  std::string name;
  std::vector<AxisPoint> points;

  /// cluster_size sweep (salt = size).
  static Axis cluster_size(const std::vector<int>& sizes);
  /// Uniform victim count of the base scenario's timeline entry 0 — the
  /// paper's concurrency C (name "victims"; the count is label and salt).
  static Axis victims(const std::vector<int>& counts);
  /// Protocol-configuration sweep. All points share salt 0: runs are paired
  /// across configurations by construction.
  static Axis configs(const std::vector<NamedConfig>& cfgs);
  /// Membership-backend sweep ("swim", "central", "central:miss=5",
  /// "static"). All points share salt 0, like configs(): every backend sees
  /// the same fault schedule at the same grid point, so detection-latency and
  /// message-load deltas are backend effects, not schedule noise.
  static Axis backend(const std::vector<std::string>& names);
  /// fault::Timeline sweeps over entry `entry` of the base scenario's
  /// timeline (salt = microseconds; labels in ms, prefixed with the entry
  /// index). Applying a point to a scenario whose timeline lacks that entry
  /// throws std::out_of_range — sweep axes name real entries.
  static Axis timeline_at(std::size_t entry,
                          const std::vector<Duration>& values);
  static Axis timeline_duration(std::size_t entry,
                                const std::vector<Duration>& values);
  static Axis custom(std::string name, std::vector<AxisPoint> points);
};

// ---------------------------------------------------------------------------
// Campaign descriptor

struct Campaign {
  std::string name;
  Scenario base;
  /// Cartesian product; empty means a single grid point (the base Scenario).
  std::vector<Axis> axes;
  /// Trials per grid point, each with an independently derived seed.
  int repetitions = 1;
  std::uint64_t base_seed = 42;
  /// Worker threads. 0 = one per hardware thread; 1 = sequential. Results
  /// never depend on this value.
  int jobs = 0;
  /// Retain each trial's full Metrics registry in the CampaignResult. Off by
  /// default: the registry is the bulky part of a RunResult and aggregation
  /// only needs the scalar fields. Reporters always see the full result.
  bool keep_trial_metrics = false;
  /// Optional per-trial TraceSink factory: called on the worker thread just
  /// before the trial runs, with the trial's coordinates already filled in;
  /// the returned sinks observe that trial's merged event stream (the
  /// fuzzer's coverage seam). The factory must be thread-safe and the sinks
  /// it returns must not be shared across concurrent trials — hand out one
  /// pre-allocated sink per trial_index and determinism is preserved.
  std::function<std::vector<check::TraceSink*>(const TrialResult&)>
      trial_sinks;

  /// Empty when runnable; otherwise one actionable message per defect
  /// (including per-grid-point Scenario validation failures).
  std::vector<std::string> validate() const;
};

// ---------------------------------------------------------------------------
// Grid expansion & seeds

/// One cell of the expanded cartesian grid.
struct GridPoint {
  int index = 0;
  /// Axis point labels, parallel to Campaign::axes.
  std::vector<std::string> labels;
  /// Axis point salts, parallel to Campaign::axes (trial_seed input).
  std::vector<std::uint64_t> salts;
  /// Base scenario with every axis point applied.
  Scenario scenario;
};

/// Expand the cartesian product of `c.axes` over `c.base`. Last axis varies
/// fastest. Does not validate — run() and Campaign::validate() do.
std::vector<GridPoint> expand_grid(const Campaign& c);

/// Per-trial seed derivation: a SplitMix64 chain over the base seed, each
/// axis salt in axis order, and the repetition index. Depends only on the
/// campaign descriptor — never on thread scheduling — so every trial replays
/// bit-identically at any `jobs` level. The paper ledger's interval and
/// threshold sweeps (paper.h) salt it with {c, d_us, i_us} and {c, d_us, 0}.
std::uint64_t trial_seed(std::uint64_t base,
                         const std::vector<std::uint64_t>& salts, int rep);

// ---------------------------------------------------------------------------
// Results

/// One executed trial: grid coordinates plus the engine's RunResult.
struct TrialResult {
  int trial_index = 0;  ///< dense [0, total); point_index * reps + rep
  int point_index = 0;
  int rep = 0;
  std::uint64_t seed = 0;
  RunResult result;
};

/// Folded statistics for one grid point across its repetitions.
struct PointStats {
  int point_index = 0;
  std::vector<std::string> labels;  ///< parallel to axis_names
  int trials = 0;
  Summary fp;          ///< FP events per trial
  Summary fp_healthy;  ///< FP⁻ events per trial
  Summary msgs;        ///< messages sent per trial
  Summary bytes;       ///< bytes sent per trial
  /// Invariant violations per trial (all-zero when checks are disabled).
  Summary violations;
  /// Trials whose invariant suite ran (Scenario::checks.enabled).
  int checked_trials = 0;
  /// Trials with at least one invariant violation.
  int violating_trials = 0;
  Histogram first_detect;  ///< merged latency samples, seconds
  Histogram full_dissem;   ///< merged latency samples, seconds
  /// Telemetry series folded across repetitions into per-(time, metric)
  /// percentile bands (empty unless base.metrics_interval > 0). Folded
  /// post-join in trial-index order, so jobs-invariant like everything else.
  std::vector<obs::SeriesBand> series;
};

struct CampaignResult {
  std::string campaign_name;
  std::vector<std::string> axis_names;
  /// Trial-index order (grid order × repetitions) — identical for every
  /// `jobs` level.
  std::vector<TrialResult> trials;
  /// Grid order, parallel to expand_grid().
  std::vector<PointStats> points;
};

/// Execute the campaign. Throws ScenarioError when validate() is non-empty;
/// a trial or a reporter that throws aborts the campaign and rethrows on the
/// caller thread. Reporters may be empty; they are invoked under an internal
/// lock (begin / progress / on_trial / end) and need no synchronization of
/// their own.
CampaignResult run(const Campaign& c,
                   const std::vector<Reporter*>& reporters = {});

// ---------------------------------------------------------------------------
// Worker pool

/// Threads for a `jobs` setting: the value itself, or one per hardware
/// thread when it is 0.
int worker_count(int jobs);

/// Calls fn(0) … fn(count - 1) on worker_count(jobs) threads, never more
/// than `count`, each claiming the next unclaimed index; inline on the
/// caller at one thread. After the first exception no index is claimed:
/// the workers finish their calls and join, then it is rethrown on the
/// caller. Campaign trials, check::shrink's batches and scenario_runner's
/// registry runs share it.
void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace lifeguard::harness
