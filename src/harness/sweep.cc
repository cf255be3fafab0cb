#include "harness/sweep.h"

#include <cstdio>
#include <cstdlib>

#include "harness/campaign.h"
#include "harness/report.h"

namespace lifeguard::harness {

ReproOptions ReproOptions::from_env() {
  ReproOptions opt;
  if (const char* f = std::getenv("REPRO_FULL")) {
    opt.full = std::atoi(f) != 0;
  }
  if (const char* r = std::getenv("REPRO_REPS")) {
    opt.reps_override = std::atoi(r);
  }
  if (const char* s = std::getenv("REPRO_SEED")) {
    opt.seed = static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  }
  if (const char* j = std::getenv("REPRO_JOBS")) {
    opt.jobs = std::atoi(j);
    if (opt.jobs < 0) opt.jobs = 0;
  }
  return opt;
}

Grid interval_grid(const ReproOptions& opt) {
  Grid g;
  if (opt.full) {
    // Paper Table III, verbatim.
    g.concurrency = {1, 4, 8, 12, 16, 20, 24, 28, 32};
    g.durations = {msec(128), msec(512),   msec(2048),
                   msec(8192), msec(16384), msec(32768)};
    g.intervals = {msec(1),   msec(4),    msec(16),  msec(64),
                   msec(256), msec(1024), msec(4096), msec(16384)};
    g.repetitions = 10;
    g.test_length = sec(120);
  } else {
    // A representative slice of Table III: one sub-timeout duration (512 ms,
    // no FPs expected), the two durations that straddle the SWIM suspicion
    // timeout from above, and intervals spanning tight flapping to long
    // recovery windows.
    g.concurrency = {1, 8, 16, 32};
    g.durations = {msec(512), msec(16384), msec(32768)};
    g.intervals = {msec(4), msec(256), msec(4096)};
    g.repetitions = 1;
    g.test_length = sec(120);
  }
  if (opt.reps_override > 0) g.repetitions = opt.reps_override;
  return g;
}

Grid threshold_grid(const ReproOptions& opt) {
  Grid g;
  if (opt.full) {
    // Paper Table II, verbatim.
    g.concurrency = {1, 4, 8, 12, 16, 20, 24, 28, 32};
    g.durations = {msec(128), msec(512),   msec(2048),
                   msec(8192), msec(16384), msec(32768)};
    g.repetitions = 10;
    g.observe = sec(105);  // anomaly + detection + recovery within 120 s
  } else {
    g.concurrency = {1, 8, 16, 32};
    // Only D > the suspicion timeout yields completed true detections; the
    // smaller D values exist to confirm no detection happens (kept in the
    // full grid). The quick grid spends its runs where samples come from.
    g.durations = {msec(16384), msec(32768)};
    g.repetitions = 2;
    g.observe = sec(70);
  }
  if (opt.reps_override > 0) g.repetitions = opt.reps_override;
  return g;
}

namespace {

/// Adapts the ProgressFn callback onto the Reporter interface.
class FnProgress : public Reporter {
 public:
  explicit FnProgress(const ProgressFn& fn) : fn_(fn) {}
  void progress(int done, int total) override {
    if (fn_) fn_(done, total);
  }

 private:
  const ProgressFn& fn_;
};

int resolve_jobs(int jobs) {
  return jobs < 0 ? ReproOptions::from_env().jobs : jobs;
}

/// A grid campaign's base: one uniform-victim entry of `fault` over `span`,
/// which the axes below rewrite point by point.
Scenario grid_base(const char* name, const Grid& grid, const swim::Config& cfg,
                   fault::Fault fault, Duration span, Duration run_length) {
  Scenario s;
  s.name = name;
  s.cluster_size = grid.cluster_size;
  s.quiesce = grid.quiesce;
  s.config = cfg;
  s.timeline.add(Duration{}, span, fault, fault::VictimSelector::uniform(1));
  s.run_length = run_length;
  return s;
}

/// Sweeps the entry's victim count C (salt = C).
Axis victims_axis(const std::vector<int>& counts) {
  Axis a = Axis::custom("victims", {});
  for (int c : counts) {
    a.points.push_back({std::to_string(c), static_cast<std::uint64_t>(c),
                        [c](Scenario& s) {
                          s.timeline.entry(0).victims =
                              fault::VictimSelector::uniform(c);
                        }});
  }
  return a;
}

/// Sweeps one span of the entry, written by `set` (salt = microseconds,
/// label in ms).
Axis span_axis(std::string name, const std::vector<Duration>& values,
               void (*set)(fault::TimelineEntry&, Duration)) {
  Axis a = Axis::custom(std::move(name), {});
  for (Duration d : values) {
    a.points.push_back(
        {std::to_string(d.us / 1000) + "ms", static_cast<std::uint64_t>(d.us),
         [d, set](Scenario& s) { set(s.timeline.entry(0), d); }});
  }
  return a;
}

}  // namespace

IntervalSweepResult sweep_interval(const swim::Config& cfg, const Grid& grid,
                                   std::uint64_t seed_base,
                                   const ProgressFn& progress, int jobs) {
  // The grid as a campaign: victims/duration/interval axes salt the trial
  // seed with {c, d_us, i_us} (trial_seed), so every config sees the same
  // schedule at the same grid point and repetition.
  Campaign camp;
  camp.name = "sweep-interval";
  camp.base = grid_base("sweep-interval", grid, cfg,
                        fault::Fault::interval_block(sec(8), msec(64)),
                        grid.test_length, grid.test_length);
  camp.axes = {victims_axis(grid.concurrency),
               span_axis("duration", grid.durations,
                         [](fault::TimelineEntry& e, Duration d) {
                           e.fault.period = d;
                         }),
               span_axis("interval", grid.intervals,
                         [](fault::TimelineEntry& e, Duration i) {
                           e.fault.gap = i;
                         })};
  camp.repetitions = grid.repetitions;
  camp.base_seed = seed_base;
  camp.jobs = resolve_jobs(jobs);

  FnProgress meter(progress);
  const CampaignResult res = run(camp, {&meter});

  IntervalSweepResult agg;
  const std::size_t points_per_c =
      grid.durations.size() * grid.intervals.size();
  for (const TrialResult& t : res.trials) {
    const int c =
        grid.concurrency[static_cast<std::size_t>(t.point_index) /
                         points_per_c];
    agg.fp += t.result.fp_events;
    agg.fpm += t.result.fp_healthy_events;
    agg.msgs += t.result.msgs_sent;
    agg.bytes += t.result.bytes_sent;
    agg.fp_by_c[c] += t.result.fp_events;
    agg.fpm_by_c[c] += t.result.fp_healthy_events;
    ++agg.runs;
  }
  return agg;
}

ThresholdSweepResult sweep_threshold(const swim::Config& cfg, const Grid& grid,
                                     std::uint64_t seed_base,
                                     const ProgressFn& progress, int jobs) {
  Campaign camp;
  camp.name = "sweep-threshold";
  camp.base = grid_base("sweep-threshold", grid, cfg, fault::Fault::block(),
                        sec(16), grid.observe);
  // The trailing single-point axis contributes nothing to the scenario but
  // keeps the salt chain {c, d_us, 0} — the trial_seed(base, {c, d_us, 0},
  // rep) coordinates the threshold grid has always used.
  camp.axes = {victims_axis(grid.concurrency),
               Axis::timeline_duration(0, grid.durations),
               Axis::custom("interval", {{"0ms", 0, {}}})};
  camp.repetitions = grid.repetitions;
  camp.base_seed = seed_base;
  camp.jobs = resolve_jobs(jobs);

  FnProgress meter(progress);
  const CampaignResult res = run(camp, {&meter});

  ThresholdSweepResult agg;
  agg.runs = static_cast<int>(res.trials.size());
  for (const TrialResult& t : res.trials) {
    agg.first_detect.reserve(agg.first_detect.count() +
                             t.result.first_detect.size());
    for (double s : t.result.first_detect) agg.first_detect.record(s);
    agg.full_dissem.reserve(agg.full_dissem.count() +
                            t.result.full_dissem.size());
    for (double s : t.result.full_dissem) agg.full_dissem.record(s);
  }
  return agg;
}

ProgressFn stderr_progress(std::string label) {
  return [label](int done, int total) {
    std::fprintf(stderr, "\r%s: %d/%d runs", label.c_str(), done, total);
    if (done == total) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  };
}

}  // namespace lifeguard::harness
