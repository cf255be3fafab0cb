// The paper ledger (harness/paper.h): its grids against Tables II/III, its
// seeds, its folds and its runner.
#include "harness/paper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "swim/config.h"

namespace lifeguard::harness::paper {
namespace {

const std::vector<std::uint64_t> kTableC = {1, 4, 8, 12, 16, 20, 24, 28, 32};
const std::vector<std::uint64_t> kTableD = {128000,  512000,   2048000,
                                            8192000, 16384000, 32768000};
const std::vector<std::uint64_t> kTableI = {1000,   4000,    16000,   64000,
                                            256000, 1024000, 4096000, 16384000};

std::vector<std::uint64_t> salts(const Axis& a) {
  std::vector<std::uint64_t> out;
  for (const AxisPoint& p : a.points) out.push_back(p.seed_salt);
  return out;
}

/// The rendered line that starts with `head`.
std::string line_of(const std::string& table, const std::string& head) {
  const std::size_t at = table.find("\n" + head);
  if (at == std::string::npos) return "";
  return table.substr(at + 1, table.find('\n', at + 1) - at - 1);
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

bool is_interval(const Campaign& c) {
  return c.base.name == "table4-false-positives";
}
bool is_threshold(const Campaign& c) { return c.base.name == "table5-latency"; }

/// The grid a binary used: C, D and I salts (D and I in microseconds) and
/// repetitions.
struct Expected {
  std::vector<std::uint64_t> c, d, i;
  int reps;
};

TEST(Sweep, QuickGridsAreSubsetsOfPaperGrids) {
  // Under --full every interval grid is Table III and every threshold grid
  // Table II, verbatim: 10 repetitions, 120 s interval runs, a 105 s
  // threshold window.
  Options full;
  full.full = true;
  for (const Artifact& a : artifacts()) {
    for (const Sweep& s : a.sweeps(full)) {
      for (const Campaign& c : s.campaigns) {
        SCOPED_TRACE(a.name + "/" + s.key + "/" + c.name);
        if (is_interval(c)) {
          ASSERT_EQ(c.axes.size(), 3u);
          EXPECT_EQ(salts(c.axes[2]), kTableI);
          EXPECT_EQ(c.base.run_length, sec(120));
          EXPECT_EQ(c.base.timeline.entries()[0].duration, sec(120));
        } else if (is_threshold(c)) {
          ASSERT_EQ(c.axes.size(), 3u);
          EXPECT_EQ(salts(c.axes[2]), std::vector<std::uint64_t>{0});
          EXPECT_EQ(c.base.run_length, sec(105));
        } else {
          EXPECT_EQ(c.base.name, "fig1-cpu-exhaustion");
          EXPECT_EQ(salts(c.axes[0]),
                    (std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32}));
          EXPECT_EQ(c.repetitions, 5);
          continue;
        }
        EXPECT_EQ(c.axes[0].name, "victims");
        EXPECT_EQ(salts(c.axes[0]), kTableC);
        EXPECT_EQ(salts(c.axes[1]), kTableD);
        EXPECT_EQ(c.repetitions, 10);
        EXPECT_EQ(c.base.cluster_size, 128);
        EXPECT_EQ(c.base.quiesce, sec(15));
      }
    }
  }

  // The quick grids, sweep by sweep, are the ones the per-table binaries
  // ran; each value appears in the paper's grid.
  const std::vector<std::uint64_t> big_d = {16384000, 32768000};
  const std::map<std::string, Expected> quick = {
      {"interval", {{1, 8, 16, 32}, {512000, 16384000, 32768000},
                    {4000, 256000, 4096000}, 1}},
      {"threshold", {{1, 8, 16, 32}, big_d, {0}, 2}},
      {"figure", {kTableC, big_d, {4000, 256000}, 1}},
      {"table7-threshold", {{8}, big_d, {0}, 2}},
      {"table7-interval", {{16}, {8192000, 32768000}, {4000, 256000}, 1}},
      {"ablation-nack", {{8, 16}, {8192000, 32768000}, {4000}, 1}},
      {"knob-interval", {{16}, {8192000, 32768000}, {4000}, 1}},
      {"knob-threshold", {{8}, {32768000}, {0}, 2}},
  };
  const auto subset = [](const std::vector<std::uint64_t>& v,
                         const std::vector<std::uint64_t>& of) {
    return std::all_of(v.begin(), v.end(), [&](std::uint64_t x) {
      return std::find(of.begin(), of.end(), x) != of.end();
    });
  };
  std::set<std::string> seen;
  for (const Artifact& a : artifacts()) {
    for (const Sweep& s : a.sweeps(Options{})) {
      seen.insert(s.key);
      for (const Campaign& c : s.campaigns) {
        SCOPED_TRACE(a.name + "/" + s.key + "/" + c.name);
        if (s.key == "fig1") {
          EXPECT_EQ(salts(c.axes[0]),
                    (std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32}));
          EXPECT_EQ(c.repetitions, 2);
          continue;
        }
        ASSERT_TRUE(quick.contains(s.key));
        const Expected& e = quick.at(s.key);
        EXPECT_EQ(salts(c.axes[0]), e.c);
        EXPECT_EQ(salts(c.axes[1]), e.d);
        EXPECT_EQ(salts(c.axes[2]), e.i);
        EXPECT_EQ(c.repetitions, e.reps);
        EXPECT_EQ(c.base.run_length, is_interval(c) ? sec(120) : sec(70));
        EXPECT_TRUE(subset(e.c, kTableC));
        EXPECT_TRUE(subset(e.d, kTableD));
        EXPECT_TRUE(is_threshold(c) || subset(e.i, kTableI));
      }
    }
  }
  EXPECT_EQ(seen.size(), quick.size() + 1);
}

TEST(Sweep, RepsOverrideApplies) {
  // --reps N sets every grid's repetitions, quick or full.
  for (const bool full : {false, true}) {
    Options opt;
    opt.full = full;
    opt.reps = 7;
    for (const Artifact& a : artifacts()) {
      for (const Sweep& s : a.sweeps(opt)) {
        for (const Campaign& c : s.campaigns) {
          EXPECT_EQ(c.repetitions, 7) << a.name << "/" << s.key;
        }
      }
    }
  }
}

TEST(Sweep, RunSeedsArePairedAndDistinct) {
  // Interval grids salt trial_seed with {c, d_us, i_us}, threshold grids
  // with {c, d_us, 0} and Fig. 1 with {count, 0}: every config row of a
  // sweep sees the same seeds, and distinct grid points distinct ones.
  for (const Artifact& a : artifacts()) {
    for (const Sweep& s : a.sweeps(Options{})) {
      const std::vector<GridPoint> first = expand_grid(s.campaigns.front());
      for (const Campaign& c : s.campaigns) {
        SCOPED_TRACE(a.name + "/" + s.key + "/" + c.name);
        const std::vector<GridPoint> grid = expand_grid(c);
        ASSERT_EQ(grid.size(), first.size());
        std::set<std::uint64_t> seeds;
        for (std::size_t p = 0; p < grid.size(); ++p) {
          const GridPoint& g = grid[p];
          const fault::TimelineEntry& e = g.scenario.timeline.entries()[0];
          const auto count = static_cast<std::uint64_t>(e.victims.count);
          std::vector<std::uint64_t> want;
          if (is_interval(c)) {
            want = {count, static_cast<std::uint64_t>(e.fault.period.us),
                    static_cast<std::uint64_t>(e.fault.gap.us)};
          } else if (is_threshold(c)) {
            want = {count, static_cast<std::uint64_t>(e.duration.us), 0};
          } else {
            want = {count, 0};
          }
          EXPECT_EQ(g.salts, want);
          EXPECT_EQ(g.salts, first[p].salts);
          for (int rep = 0; rep < c.repetitions; ++rep) {
            seeds.insert(trial_seed(c.base_seed, g.salts, rep));
          }
        }
        // Fig. 1's config axis pairs SWIM with Lifeguard at each count.
        const std::size_t paired = is_interval(c) || is_threshold(c) ? 1 : 2;
        EXPECT_EQ(seeds.size() * paired,
                  grid.size() * static_cast<std::size_t>(c.repetitions));
      }
    }
  }
  EXPECT_NE(trial_seed(42, {8, 1000, 4}, 0), trial_seed(43, {8, 1000, 4}, 0));
}

/// Keeps only the point labelled `label` on axis `a`.
void keep(Axis& a, const std::string& label) {
  std::erase_if(a.points,
                [&](const AxisPoint& p) { return p.label != label; });
  ASSERT_EQ(a.points.size(), 1u) << a.name << "=" << label;
}

TEST(Sweep, TinySweepAggregates) {
  // Table IV's sweep cut to one point (C=2, D=512 ms, I=256 ms) of a
  // 24-member cluster, run per config row and folded by Tables IV and VI.
  Sweep s = find("table4")->sweeps(Options{}).front();
  SweepResult results;
  for (Campaign c : s.campaigns) {
    c.base.cluster_size = 24;
    c.base.quiesce = sec(10);
    c.base.run_length = sec(15);
    c.base.timeline.entry(0).duration = sec(15);
    c.axes[0] = Axis::victims({2});
    keep(c.axes[1], "512ms");
    keep(c.axes[2], "256ms");
    c.base_seed = 7;
    c.jobs = 1;
    results.push_back(run(c));
  }
  ASSERT_EQ(results.size(), 5u);
  for (const CampaignResult& r : results) {
    ASSERT_EQ(r.trials.size(), 1u);
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].labels[0], "2");
    EXPECT_EQ(point_totals(r).size(), 1u);
    EXPECT_GT(totals(r).msgs, 0);
  }
  const std::string t4 = find("table4")->fold({&results}).render();
  const std::string t6 = find("table6")->fold({&results}).render();
  for (const NamedConfig& nc : table1_configs()) {
    EXPECT_NE(line_of(t4, nc.name), "") << t4;
    EXPECT_NE(line_of(t6, nc.name), "") << t6;
  }
  // SWIM is its own 100%.
  EXPECT_EQ(count(line_of(t4, "SWIM"), "100.00"), 2u) << t4;
  EXPECT_EQ(count(line_of(t6, "SWIM"), "100.00"), 2u) << t6;
}

TEST(Sweep, ThresholdSweepCollectsLatencySamples) {
  // Table V's SWIM row at one point (C=2, D=32.768 s) of a 32-member
  // cluster: both victims are detected within the 50 s window.
  Campaign c = find("table5")->sweeps(Options{}).front().campaigns.front();
  ASSERT_EQ(c.name, "SWIM");
  c.base.cluster_size = 32;
  c.base.quiesce = sec(10);
  c.base.run_length = sec(50);
  c.axes[0] = Axis::victims({2});
  keep(c.axes[1], "e0+32768ms");
  c.repetitions = 1;
  c.base_seed = 11;
  c.jobs = 1;
  const SweepResult results = {run(c)};
  const std::string t5 = find("table5")->fold({&results}).render();
  const std::string swim = line_of(t5, "SWIM");
  EXPECT_EQ(count(swim, "n/a"), 0u) << t5;
  EXPECT_EQ(swim.substr(swim.size() - 2), " 2") << t5;  // Samples
}

/// A config row's result with one trial that detected nothing.
CampaignResult no_detection(const std::string& row) {
  CampaignResult r;
  r.campaign_name = row;
  r.axis_names = {"victims"};
  PointStats p;
  p.labels = {"8"};
  r.points.push_back(p);
  r.trials.emplace_back();
  return r;
}

TEST(PaperLedger, LatencyCellsWithoutSamplesPrintNa) {
  // Histogram::percentile reads 0 on no samples; a latency table must not
  // print that as a 0.00 s detection.
  const SweepResult none = {no_detection("SWIM")};
  const std::string t5 = find("table5")->fold({&none}).render();
  const std::string row = line_of(t5, "SWIM");
  EXPECT_EQ(count(row, "n/a"), 6u) << t5;
  EXPECT_EQ(count(row, "0.00"), 0u) << t5;

  // Ablation K=0: the timeout stays at Max and the threshold sweep detects
  // nothing.
  const SweepResult fp = {no_detection("0")};
  const std::string k = find("ablation-regossip")->fold({&fp, &none}).render();
  EXPECT_EQ(count(line_of(k, "0 "), "n/a"), 2u) << k;

  // Table VII: a tuning without samples against SWIM's.
  SweepResult thr = {no_detection("SWIM"), no_detection("a=2 b=2")};
  thr[0].trials[0].result.first_detect = {12.0};
  thr[0].trials[0].result.full_dissem = {13.0};
  const SweepResult itv = {no_detection("SWIM"), no_detection("a=2 b=2")};
  const std::string t7 = find("table7")->fold({&thr, &itv}).render();
  EXPECT_EQ(count(line_of(t7, "Med First"), "n/a"), 1u) << t7;
  EXPECT_EQ(count(line_of(t7, "FP "), "n/a"), 0u) << t7;
}

TEST(PaperLedger, TheTenArtifactsAndTheirSharedSweeps) {
  EXPECT_EQ(names(),
            "table4, table5, table6, table7, fig1, fig2, fig3, "
            "ablation-nack, ablation-regossip, ablation-lhm");
  EXPECT_EQ(find("nope"), nullptr);
  EXPECT_EQ(find("all"), nullptr);
  // Tables IV and VI fold one interval sweep, Figs. 2 and 3 one figure
  // sweep — and under --full the figure sweep is Table III itself.
  const auto key = [](const char* name, const Options& opt) {
    return find(name)->sweeps(opt).front().key;
  };
  Options full;
  full.full = true;
  EXPECT_EQ(key("table4", {}), key("table6", {}));
  EXPECT_EQ(key("fig2", {}), key("fig3", {}));
  EXPECT_NE(key("table4", {}), key("fig2", {}));
  EXPECT_EQ(key("fig2", full), key("table4", full));
}

/// The (sweep key, config) pairs of every artifact's rows: what a ledger
/// printing all ten runs, one campaign each.
std::size_t distinct_campaigns(const Options& opt, std::size_t* rows) {
  std::vector<std::pair<std::string, swim::Config>> seen;
  *rows = 0;
  for (const Artifact& a : artifacts()) {
    for (const Sweep& s : a.sweeps(opt)) {
      for (const Campaign& c : s.campaigns) {
        ++*rows;
        const std::pair<std::string, swim::Config> p{s.key, c.base.config};
        if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
          seen.push_back(p);
        }
      }
    }
  }
  return seen.size();
}

TEST(PaperLedger, EachGridAndConfigRunsOnce) {
  // The re-gossip and LHM ablations share their two grids, and their K=3
  // and S=8 rows are both plain Lifeguard.
  const auto row = [](const char* artifact, std::size_t sweep,
                      const std::string& name, const Options& opt) {
    const Sweep s = find(artifact)->sweeps(opt)[sweep];
    for (const Campaign& c : s.campaigns) {
      if (c.name == name) return std::pair{s.key, c.base.config};
    }
    ADD_FAILURE() << artifact << " has no row " << name;
    return std::pair{std::string(), swim::Config{}};
  };
  for (const std::size_t sweep : {0u, 1u}) {
    EXPECT_EQ(row("ablation-regossip", sweep, "3", {}),
              row("ablation-lhm", sweep, "8", {}));
  }
  // Under --full, Table VII's SWIM and a=5 b=6 rows are Tables IV and V's
  // SWIM and Lifeguard rows.
  Options full;
  full.full = true;
  EXPECT_EQ(row("table7", 0, "SWIM", full), row("table5", 0, "SWIM", full));
  EXPECT_EQ(row("table7", 1, "SWIM", full), row("table4", 0, "SWIM", full));
  EXPECT_EQ(row("table7", 0, "a=5 b=6", full),
            row("table5", 0, "Lifeguard", full));
  EXPECT_EQ(row("table7", 1, "a=5 b=6", full),
            row("table4", 0, "Lifeguard", full));

  std::size_t rows = 0;
  EXPECT_EQ(distinct_campaigns({}, &rows), 54u);
  EXPECT_EQ(rows, 66u);
  EXPECT_EQ(distinct_campaigns(full, &rows), 42u);
  EXPECT_EQ(rows, 66u);
}

// Two artifacts over one sweep key: the ledger runs its trials once and
// folds the one result for both.
std::atomic<int> g_trials{0};

std::vector<Sweep> tiny_sweeps(const Options& opt) {
  Campaign c;
  c.name = "tiny";
  c.base = *ScenarioRegistry::builtin().find("table4-false-positives");
  c.base.cluster_size = 12;
  c.base.quiesce = sec(5);
  c.base.run_length = sec(5);
  c.base.timeline.entry(0).duration = sec(5);
  c.base.timeline.entry(0).victims = fault::VictimSelector::uniform(1);
  c.repetitions = opt.reps;
  c.base_seed = opt.seed;
  c.jobs = opt.jobs;
  c.trial_sinks = [](const TrialResult&) {
    ++g_trials;
    return std::vector<check::TraceSink*>{};
  };
  return {{"tiny", {c}}};
}

Table tiny_fold(const std::vector<const SweepResult*>& r) {
  Table t({"Trials"});
  t.add_row({std::to_string(r[0]->front().trials.size())});
  return t;
}

// Rows over one grid: X and Z run one config, Y and W two others. A
// campaign of one config over another grid is another campaign.
Campaign tiny_row(const Options& opt, const char* name, int k) {
  Campaign c = tiny_sweeps(opt).front().campaigns.front();
  c.name = name;
  c.base.config = swim::Config::lifeguard();
  c.base.config.suspicion_k = k;
  return c;
}

std::vector<Sweep> xy_sweeps(const Options& opt) {
  return {{"tiny", {tiny_row(opt, "X", 3), tiny_row(opt, "Y", 1)}}};
}

std::vector<Sweep> zw_sweeps(const Options& opt) {
  return {{"tiny", {tiny_row(opt, "Z", 3), tiny_row(opt, "W", 0)}},
          {"other", {tiny_row(opt, "X", 3)}}};
}

Table names_fold(const std::vector<const SweepResult*>& r) {
  Table t({"Row", "Trials"});
  for (const SweepResult* sweep : r) {
    for (const CampaignResult& row : *sweep) {
      t.add_row({row.campaign_name, std::to_string(row.trials.size())});
    }
  }
  return t;
}

TEST(PaperLedger, RepeatedRowsRunOnceUnderTheirOwnNames) {
  const Artifact xy{"xy", "XY", "nothing", "", xy_sweeps, names_fold};
  const Artifact zw{"zw", "ZW", "nothing", "", zw_sweeps, names_fold};
  Options opt;
  opt.reps = 2;
  opt.jobs = 1;
  Ledger ledger(opt);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  g_trials = 0;
  ledger.print(xy, out);
  EXPECT_EQ(ledger.campaigns_run(), 2u);
  ledger.print(zw, out);
  // Z is X's campaign: only W and the other grid's X run.
  EXPECT_EQ(ledger.campaigns_run(), 4u);
  EXPECT_EQ(g_trials, 8);

  std::rewind(out);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof buf, out) != nullptr) text += buf;
  std::fclose(out);
  // Z's row folds X's result under its own name.
  Table want({"Row", "Trials"});
  for (const char* name : {"Z", "W", "X"}) want.add_row({name, "2"});
  EXPECT_NE(text.find("== ZW ==\nReproduces: nothing\nMode: quick grid, "
                      "--reps 2, seed 42, jobs 1\n\n" +
                      want.render()),
            std::string::npos)
      << text;
}

TEST(PaperLedger, SharedSweepRunsOnceAndPrintsTheBanner) {
  const Artifact a{"a", "Tiny A", "nothing", "note a\n", tiny_sweeps,
                   tiny_fold};
  const Artifact b{"b", "Tiny B", "nothing", "note b\n", tiny_sweeps,
                   tiny_fold};
  Options opt;
  opt.reps = 3;
  opt.seed = 9;
  opt.jobs = 2;
  Ledger ledger(opt);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  g_trials = 0;
  ledger.print(a, out);
  ledger.print(b, out);
  EXPECT_EQ(g_trials, 3);

  std::rewind(out);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof buf, out) != nullptr) text += buf;
  std::fclose(out);
  EXPECT_EQ(text,
            "== Tiny A ==\nReproduces: nothing\n"
            "Mode: quick grid, --reps 3, seed 9, jobs 2\n\n"
            "Trials\n------\n3     \n\nnote a\n"
            "== Tiny B ==\nReproduces: nothing\n"
            "Mode: quick grid, --reps 3, seed 9, jobs 2\n\n"
            "Trials\n------\n3     \n\nnote b\n");
}

}  // namespace
}  // namespace lifeguard::harness::paper
