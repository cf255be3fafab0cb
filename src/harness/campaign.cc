#include "harness/campaign.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "harness/report.h"

namespace lifeguard::harness {

// ---------------------------------------------------------------------------
// Axis factories

namespace {

std::string ms_label(Duration d) {
  // Whole milliseconds when exact, else microseconds — labels are registry
  // keys in artifacts, so they must be unambiguous.
  if (d.us % 1000 == 0) return std::to_string(d.us / 1000) + "ms";
  return std::to_string(d.us) + "us";
}

}  // namespace

Axis Axis::cluster_size(const std::vector<int>& sizes) {
  Axis a;
  a.name = "cluster_size";
  for (int n : sizes) {
    a.points.push_back({std::to_string(n), static_cast<std::uint64_t>(n),
                        [n](Scenario& s) { s.cluster_size = n; }});
  }
  return a;
}

Axis Axis::victims(const std::vector<int>& counts) {
  Axis a;
  a.name = "victims";
  for (int c : counts) {
    a.points.push_back({std::to_string(c), static_cast<std::uint64_t>(c),
                        [c](Scenario& s) {
                          s.timeline.entry(0).victims =
                              fault::VictimSelector::uniform(c);
                        }});
  }
  return a;
}

std::vector<NamedConfig> table1_configs(double alpha, double beta) {
  auto tune = [&](swim::Config c) {
    if (c.lha_suspicion) {
      c.suspicion_alpha = alpha;
      c.suspicion_beta = beta;
    }
    return c;
  };
  return {
      {"SWIM", swim::Config::swim_baseline()},
      {"LHA-Probe", swim::Config::lha_probe_only()},
      {"LHA-Suspicion", tune(swim::Config::lha_suspicion_only())},
      {"Buddy System", swim::Config::buddy_only()},
      {"Lifeguard", tune(swim::Config::lifeguard())},
  };
}

Axis Axis::configs(const std::vector<NamedConfig>& cfgs) {
  Axis a;
  a.name = "config";
  for (const NamedConfig& nc : cfgs) {
    const swim::Config cfg = nc.config;
    a.points.push_back({nc.name, 0, [cfg](Scenario& s) { s.config = cfg; }});
  }
  return a;
}

Axis Axis::backend(const std::vector<std::string>& names) {
  Axis a;
  a.name = "membership";
  for (const std::string& name : names) {
    a.points.push_back({name, 0, [name](Scenario& s) { s.membership = name; }});
  }
  return a;
}

Axis Axis::timeline_at(std::size_t entry, const std::vector<Duration>& values) {
  Axis a;
  a.name = "timeline[" + std::to_string(entry) + "].at";
  for (Duration d : values) {
    a.points.push_back({"e" + std::to_string(entry) + "@" + ms_label(d),
                        static_cast<std::uint64_t>(d.us),
                        [entry, d](Scenario& s) { s.timeline.entry(entry).at = d; }});
  }
  return a;
}

Axis Axis::timeline_duration(std::size_t entry,
                             const std::vector<Duration>& values) {
  Axis a;
  a.name = "timeline[" + std::to_string(entry) + "].duration";
  for (Duration d : values) {
    a.points.push_back(
        {"e" + std::to_string(entry) + "+" + ms_label(d),
         static_cast<std::uint64_t>(d.us),
         [entry, d](Scenario& s) { s.timeline.entry(entry).duration = d; }});
  }
  return a;
}

Axis Axis::custom(std::string name, std::vector<AxisPoint> points) {
  Axis a;
  a.name = std::move(name);
  a.points = std::move(points);
  return a;
}

// ---------------------------------------------------------------------------
// Grid expansion & seeds

std::vector<GridPoint> expand_grid(const Campaign& c) {
  std::vector<GridPoint> grid;
  std::size_t total = 1;
  for (const Axis& a : c.axes) total *= a.points.size();
  if (total == 0) return grid;
  grid.reserve(total);

  // Mixed-radix counter over the axes; last axis varies fastest.
  std::vector<std::size_t> idx(c.axes.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    GridPoint p;
    p.index = static_cast<int>(n);
    p.scenario = c.base;
    for (std::size_t ai = 0; ai < c.axes.size(); ++ai) {
      const AxisPoint& pt = c.axes[ai].points[idx[ai]];
      p.labels.push_back(pt.label);
      p.salts.push_back(pt.seed_salt);
      if (pt.apply) pt.apply(p.scenario);
    }
    grid.push_back(std::move(p));
    for (std::size_t ai = c.axes.size(); ai-- > 0;) {
      if (++idx[ai] < c.axes[ai].points.size()) break;
      idx[ai] = 0;
    }
  }
  return grid;
}

std::uint64_t trial_seed(std::uint64_t base,
                         const std::vector<std::uint64_t>& salts, int rep) {
  std::uint64_t s = base;
  for (std::uint64_t salt : salts) s ^= splitmix64(s) + salt;
  s ^= splitmix64(s) + static_cast<std::uint64_t>(rep);
  return splitmix64(s);
}

// ---------------------------------------------------------------------------
// Validation

namespace {

/// Structural checks that must hold before the grid can be expanded.
std::vector<std::string> validate_shape(const Campaign& c) {
  std::vector<std::string> errors;
  if (c.repetitions < 1) {
    errors.push_back("repetitions (" + std::to_string(c.repetitions) +
                     ") must be >= 1");
  }
  if (c.jobs < 0) {
    errors.push_back("jobs (" + std::to_string(c.jobs) +
                     ") must be >= 0 (0 = one worker per hardware thread)");
  }
  std::set<std::string> axis_names;
  for (const Axis& a : c.axes) {
    if (a.name.empty()) {
      errors.push_back("every axis needs a name — it becomes the artifact "
                       "column / coordinate key");
    } else if (!axis_names.insert(a.name).second) {
      errors.push_back("duplicate axis name '" + a.name +
                       "' — coordinates must be unambiguous");
    }
    if (a.points.empty()) {
      errors.push_back("axis '" + a.name +
                       "' has no points — a sweep needs at least one value");
    }
  }
  return errors;
}

/// Per-cell Scenario validation over an already-expanded grid.
std::vector<std::string> validate_points(const Campaign& c,
                                         const std::vector<GridPoint>& grid) {
  std::vector<std::string> errors;
  for (const GridPoint& p : grid) {
    for (const std::string& e : p.scenario.validate()) {
      std::string where = "grid point " + std::to_string(p.index) + " (";
      for (std::size_t i = 0; i < p.labels.size(); ++i) {
        if (i > 0) where += ", ";
        where += c.axes[i].name + "=" + p.labels[i];
      }
      errors.push_back(where + "): " + e);
    }
  }
  return errors;
}

}  // namespace

std::vector<std::string> Campaign::validate() const {
  std::vector<std::string> errors = validate_shape(*this);
  if (!errors.empty()) return errors;  // grid expansion needs sane axes
  return validate_points(*this, expand_grid(*this));
}

// ---------------------------------------------------------------------------
// Execution

namespace {

void fold_point_stats(const std::vector<GridPoint>& grid,
                      const std::vector<TrialResult>& trials, int reps,
                      std::vector<PointStats>& out) {
  out.resize(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    out[p].point_index = static_cast<int>(p);
    out[p].labels = grid[p].labels;
  }
  std::vector<Histogram> fp(grid.size()), fpm(grid.size()), msgs(grid.size()),
      bytes(grid.size()), viols(grid.size());
  for (auto& h : fp) h.reserve(static_cast<std::size_t>(reps));
  for (auto& h : fpm) h.reserve(static_cast<std::size_t>(reps));
  for (auto& h : msgs) h.reserve(static_cast<std::size_t>(reps));
  for (auto& h : bytes) h.reserve(static_cast<std::size_t>(reps));
  for (auto& h : viols) h.reserve(static_cast<std::size_t>(reps));
  for (const TrialResult& t : trials) {
    PointStats& ps = out[static_cast<std::size_t>(t.point_index)];
    ++ps.trials;
    const auto pi = static_cast<std::size_t>(t.point_index);
    fp[pi].record(static_cast<double>(t.result.fp_events));
    fpm[pi].record(static_cast<double>(t.result.fp_healthy_events));
    msgs[pi].record(static_cast<double>(t.result.msgs_sent));
    bytes[pi].record(static_cast<double>(t.result.bytes_sent));
    viols[pi].record(static_cast<double>(t.result.checks.total_violations));
    if (t.result.checks.checked) {
      ++ps.checked_trials;
      if (t.result.checks.total_violations > 0) ++ps.violating_trials;
    }
    ps.first_detect.reserve(ps.first_detect.count() +
                            t.result.first_detect.size());
    for (double s : t.result.first_detect) ps.first_detect.record(s);
    ps.full_dissem.reserve(ps.full_dissem.count() +
                           t.result.full_dissem.size());
    for (double s : t.result.full_dissem) ps.full_dissem.record(s);
  }
  for (std::size_t p = 0; p < grid.size(); ++p) {
    out[p].fp = fp[p].summary();
    out[p].fp_healthy = fpm[p].summary();
    out[p].msgs = msgs[p].summary();
    out[p].bytes = bytes[p].summary();
    out[p].violations = viols[p].summary();
  }

  // Telemetry bands: fold each point's per-trial series (trials is already
  // in trial-index order, so the fold is jobs-invariant).
  std::vector<std::vector<const obs::Series*>> per_point(grid.size());
  bool any_series = false;
  for (const TrialResult& t : trials) {
    if (t.result.series.empty()) continue;
    any_series = true;
    per_point[static_cast<std::size_t>(t.point_index)].push_back(
        &t.result.series);
  }
  if (any_series) {
    for (std::size_t p = 0; p < grid.size(); ++p) {
      out[p].series = obs::fold_series_bands(per_point[p]);
    }
  }
}

}  // namespace

CampaignResult run(const Campaign& c, const std::vector<Reporter*>& reporters) {
  // Split validation so the grid is expanded exactly once (a full Table
  // II/III campaign has hundreds of points, each a Scenario copy plus axis
  // closures — and user-supplied apply hooks should fire once).
  std::vector<GridPoint> grid;
  {
    std::vector<std::string> errors = validate_shape(c);
    if (errors.empty()) {
      grid = expand_grid(c);
      errors = validate_points(c, grid);
    }
    if (!errors.empty()) throw ScenarioError(std::move(errors));
  }
  const int total =
      static_cast<int>(grid.size()) * c.repetitions;

  CampaignResult result;
  result.campaign_name = c.name;
  for (const Axis& a : c.axes) result.axis_names.push_back(a.name);
  result.trials.resize(static_cast<std::size_t>(total));

  // Pre-derive every trial's coordinates and seed up front: the work list is
  // a pure function of the descriptor, so execution order cannot leak in.
  for (int p = 0; p < static_cast<int>(grid.size()); ++p) {
    for (int rep = 0; rep < c.repetitions; ++rep) {
      const int ti = p * c.repetitions + rep;
      TrialResult& t = result.trials[static_cast<std::size_t>(ti)];
      t.trial_index = ti;
      t.point_index = p;
      t.rep = rep;
      t.seed = trial_seed(c.base_seed, grid[p].salts, rep);
    }
  }

  std::mutex mu;
  for (Reporter* r : reporters) r->begin(c, grid, total);

  int jobs = c.jobs;
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw == 0 ? 1 : static_cast<int>(hw);
  }
  jobs = std::min(jobs, std::max(total, 1));

  std::atomic<int> next{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;
  std::vector<bool> done(static_cast<std::size_t>(total), false);
  int completed = 0;
  int emitted = 0;

  auto worker = [&] {
    for (;;) {
      const int ti = next.fetch_add(1, std::memory_order_relaxed);
      if (ti >= total || aborted.load(std::memory_order_relaxed)) return;
      TrialResult& t = result.trials[static_cast<std::size_t>(ti)];
      const GridPoint& point = grid[static_cast<std::size_t>(t.point_index)];
      try {
        Scenario s = point.scenario;
        s.seed = t.seed;
        const std::vector<check::TraceSink*> sinks =
            c.trial_sinks ? c.trial_sinks(t)
                          : std::vector<check::TraceSink*>{};
        t.result = harness::run(s, sinks);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        aborted.store(true, std::memory_order_relaxed);
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      done[static_cast<std::size_t>(ti)] = true;
      ++completed;
      // Reporters are an extension point — a throwing callback must follow
      // the same abort-and-rethrow contract as a throwing trial, not
      // std::terminate the worker thread.
      try {
        for (Reporter* r : reporters) r->progress(completed, total);
        // Emit in trial-index order: flush the contiguous completed prefix.
        while (emitted < total && done[static_cast<std::size_t>(emitted)]) {
          TrialResult& e = result.trials[static_cast<std::size_t>(emitted)];
          for (Reporter* r : reporters) r->on_trial(e);
          if (!c.keep_trial_metrics) e.result.metrics.reset();
          ++emitted;
        }
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        aborted.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  fold_point_stats(grid, result.trials, c.repetitions, result.points);
  for (Reporter* r : reporters) r->end(result);
  return result;
}

}  // namespace lifeguard::harness
