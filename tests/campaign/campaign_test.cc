#include "harness/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.h"

namespace lifeguard::harness {
namespace {

/// Sweeps the blocked span D of timeline entry 0's cycles (salt = us).
Axis period_axis(const std::vector<Duration>& values) {
  Axis a = Axis::custom("duration", {});
  for (Duration d : values) {
    a.points.push_back({std::to_string(d.us / 1000) + "ms",
                        static_cast<std::uint64_t>(d.us),
                        [d](Scenario& s) {
                          s.timeline.entry(0).fault.period = d;
                        }});
  }
  return a;
}

// A deliberately small campaign: 4 grid points x 2 reps of a 12-node
// cluster, seconds of virtual time — fast enough for TSan yet exercising
// the full grid/seed/aggregation path.
Campaign tiny_campaign() {
  Campaign c;
  c.name = "tiny";
  Scenario s;
  s.name = "tiny-base";
  s.summary = "campaign test fixture";
  s.cluster_size = 12;
  s.quiesce = sec(5);
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(8),
                 fault::Fault::interval_block(msec(2000), msec(500)),
                 fault::VictimSelector::uniform(2));
  s.run_length = sec(8);
  c.base = s;
  c.axes = {Axis::victims({1, 2}), period_axis({msec(1000), msec(3000)})};
  c.repetitions = 2;
  c.base_seed = 99;
  return c;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [k, c] : a.counters()) {
    EXPECT_EQ(c.value(), b.counter_value(k)) << "counter " << k;
  }
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [k, h] : a.histograms()) {
    const auto it = b.histograms().find(k);
    ASSERT_NE(it, b.histograms().end()) << "histogram " << k;
    EXPECT_EQ(h.samples(), it->second.samples()) << "histogram " << k;
  }
}

void expect_same_trial(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.trial_index, b.trial_index);
  EXPECT_EQ(a.point_index, b.point_index);
  EXPECT_EQ(a.rep, b.rep);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.result.scenario_name, b.result.scenario_name);
  EXPECT_EQ(a.result.cluster_size, b.result.cluster_size);
  EXPECT_EQ(a.result.victims, b.result.victims);
  EXPECT_EQ(a.result.fp_events, b.result.fp_events);
  EXPECT_EQ(a.result.fp_healthy_events, b.result.fp_healthy_events);
  EXPECT_EQ(a.result.first_detect, b.result.first_detect);
  EXPECT_EQ(a.result.full_dissem, b.result.full_dissem);
  EXPECT_EQ(a.result.msgs_sent, b.result.msgs_sent);
  EXPECT_EQ(a.result.bytes_sent, b.result.bytes_sent);
  expect_same_metrics(a.result.metrics, b.result.metrics);
}

TEST(TrialSeed, MatchesLegacyRunSeed) {
  // Golden values captured from the pre-campaign run_seed(base, c, d_us,
  // i_us, rep) implementation (an independent build of the old SplitMix64
  // chain, not this code): they pin the seed derivation so paper-grid trials
  // stay bit-identical to the historical sequential loops, whose salts were
  // {c, d_us, i_us}.
  EXPECT_EQ(trial_seed(42, {8, 16384000, 4000}, 3), 2716496835168647550ULL);
  EXPECT_EQ(trial_seed(7, {1, 512000, 256000}, 0), 13209086244567694092ULL);
  // The threshold sweep keeps the legacy i = 0 coordinate via a constant
  // single-point axis, so its chain is {c, d_us, 0} too.
  EXPECT_EQ(trial_seed(42, {4, 16384000, 0}, 2), 7500441873338434338ULL);
}

TEST(TrialSeed, SensitiveToEveryCoordinate) {
  const std::uint64_t base = trial_seed(42, {1, 2}, 0);
  EXPECT_NE(base, trial_seed(43, {1, 2}, 0));   // base seed
  EXPECT_NE(base, trial_seed(42, {2, 2}, 0));   // first salt
  EXPECT_NE(base, trial_seed(42, {1, 3}, 0));   // second salt
  EXPECT_NE(base, trial_seed(42, {1, 2}, 1));   // repetition
  EXPECT_NE(base, trial_seed(42, {2, 1}, 0));   // salt order matters
  // Deterministic: same inputs, same seed.
  EXPECT_EQ(base, trial_seed(42, {1, 2}, 0));
}

TEST(ExpandGrid, CartesianProductLastAxisFastest) {
  Campaign c = tiny_campaign();
  const auto grid = expand_grid(c);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].labels, (std::vector<std::string>{"1", "1000ms"}));
  EXPECT_EQ(grid[1].labels, (std::vector<std::string>{"1", "3000ms"}));
  EXPECT_EQ(grid[2].labels, (std::vector<std::string>{"2", "1000ms"}));
  EXPECT_EQ(grid[3].labels, (std::vector<std::string>{"2", "3000ms"}));
  EXPECT_EQ(grid[2].scenario.timeline.entries()[0].victims.count, 2);
  EXPECT_EQ(grid[1].scenario.timeline.entries()[0].fault.period, msec(3000));
  EXPECT_EQ(grid[3].salts,
            (std::vector<std::uint64_t>{2, 3000000}));
  for (const auto& p : grid) EXPECT_TRUE(p.scenario.validate().empty());
}

TEST(ExpandGrid, NoAxesYieldsSingleBasePoint) {
  Campaign c = tiny_campaign();
  c.axes.clear();
  const auto grid = expand_grid(c);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_TRUE(grid[0].labels.empty());
  EXPECT_EQ(grid[0].scenario.timeline.entries()[0].victims.count,
            2);  // untouched base
}

TEST(ExpandGrid, ConfigAxisIsSeedPaired) {
  Campaign c = tiny_campaign();
  c.axes = {Axis::victims({2}),
            Axis::configs({{"SWIM", swim::Config::swim_baseline()},
                           {"Lifeguard", swim::Config::lifeguard()}})};
  const auto grid = expand_grid(c);
  ASSERT_EQ(grid.size(), 2u);
  // Same salts -> both configurations face the same derived trial seed.
  EXPECT_EQ(grid[0].salts, grid[1].salts);
  EXPECT_EQ(trial_seed(c.base_seed, grid[0].salts, 1),
            trial_seed(c.base_seed, grid[1].salts, 1));
  EXPECT_FALSE(grid[0].scenario.config.lha_probe);
  EXPECT_TRUE(grid[1].scenario.config.lha_probe);
}

TEST(Campaign, ValidateReportsActionableDefects) {
  Campaign c = tiny_campaign();
  c.repetitions = 0;
  c.axes.push_back(Axis::custom("victims", {{"x", 0, {}}}));  // dup name
  c.axes.push_back(Axis::custom("empty", {}));
  auto errors = c.validate();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("repetitions"), std::string::npos);
  EXPECT_NE(errors[1].find("duplicate axis name 'victims'"),
            std::string::npos);
  EXPECT_NE(errors[2].find("'empty' has no points"), std::string::npos);

  // Per-grid-point scenario defects name the offending coordinates.
  Campaign bad = tiny_campaign();
  bad.axes = {Axis::victims({2, 64})};  // 64 > cluster_size 12
  errors = bad.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("grid point 1 (victims=64)"), std::string::npos);
  EXPECT_NE(errors[0].find("resolves to 64 victims"), std::string::npos);

  EXPECT_THROW(run(bad), ScenarioError);
}

TEST(CampaignDeterminism, ResultsAndArtifactsIdenticalAcrossJobs) {
  Campaign c = tiny_campaign();
  c.keep_trial_metrics = true;

  auto execute = [&](int jobs, std::string& jsonl_text, std::string& csv_text) {
    Campaign run_c = c;
    run_c.jobs = jobs;
    std::ostringstream jsonl_out, csv_out;
    JsonlReporter jsonl(jsonl_out);
    CsvReporter csv(csv_out);
    const CampaignResult r = run(run_c, {&jsonl, &csv});
    jsonl_text = jsonl_out.str();
    csv_text = csv_out.str();
    return r;
  };

  std::string jsonl1, csv1, jsonl8, csv8;
  const CampaignResult seq = execute(1, jsonl1, csv1);
  const CampaignResult par = execute(8, jsonl8, csv8);

  ASSERT_EQ(seq.trials.size(), 8u);
  ASSERT_EQ(par.trials.size(), seq.trials.size());
  for (std::size_t i = 0; i < seq.trials.size(); ++i) {
    expect_same_trial(seq.trials[i], par.trials[i]);
  }

  // Aggregates fold in trial-index order, so they match exactly too.
  ASSERT_EQ(par.points.size(), seq.points.size());
  for (std::size_t p = 0; p < seq.points.size(); ++p) {
    EXPECT_EQ(seq.points[p].labels, par.points[p].labels);
    EXPECT_EQ(seq.points[p].trials, par.points[p].trials);
    EXPECT_DOUBLE_EQ(seq.points[p].fp.mean, par.points[p].fp.mean);
    EXPECT_DOUBLE_EQ(seq.points[p].fp.stddev, par.points[p].fp.stddev);
    EXPECT_DOUBLE_EQ(seq.points[p].msgs.mean, par.points[p].msgs.mean);
    EXPECT_EQ(seq.points[p].first_detect.samples(),
              par.points[p].first_detect.samples());
  }

  // Streamed artifacts are byte-identical regardless of parallelism.
  EXPECT_EQ(jsonl1, jsonl8);
  EXPECT_EQ(csv1, csv8);
}

TEST(CampaignReporters, JsonlAndCsvShape) {
  Campaign c = tiny_campaign();
  c.jobs = 2;
  std::ostringstream jsonl_out, csv_out;
  JsonlReporter jsonl(jsonl_out);
  CsvReporter csv(csv_out);
  const CampaignResult r = run(c, {&jsonl, &csv});

  // JSONL: one campaign header, one line per trial, one aggregate per point.
  const auto jl = lines_of(jsonl_out.str());
  ASSERT_EQ(jl.size(), 1u + r.trials.size() + r.points.size());
  EXPECT_NE(jl[0].find("\"type\":\"campaign\""), std::string::npos);
  EXPECT_NE(jl[0].find("\"name\":\"tiny\""), std::string::npos);
  EXPECT_NE(jl[0].find("\"axes\":[\"victims\",\"duration\"]"),
            std::string::npos);
  EXPECT_NE(jl[0].find("\"trials\":8"), std::string::npos);
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    const std::string& line = jl[1 + i];
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\"trial\""), std::string::npos);
    // on_trial() is index-ordered, so line i reports trial i.
    EXPECT_NE(line.find("\"trial\":" + std::to_string(i) + ","),
              std::string::npos);
    EXPECT_NE(line.find("\"coords\":{\"victims\":\""), std::string::npos);
    EXPECT_NE(line.find("\"seed\":\"" + std::to_string(r.trials[i].seed) +
                        "\""),
              std::string::npos);
  }
  for (std::size_t p = 0; p < r.points.size(); ++p) {
    const std::string& line = jl[1 + r.trials.size() + p];
    EXPECT_NE(line.find("\"type\":\"aggregate\""), std::string::npos);
    EXPECT_NE(line.find("\"ci95\":"), std::string::npos);
    EXPECT_NE(line.find("\"p99\":"), std::string::npos);
  }

  // CSV: header plus one row per trial, all with the same column count.
  const auto cl = lines_of(csv_out.str());
  ASSERT_EQ(cl.size(), 1u + r.trials.size());
  EXPECT_NE(cl[0].find("trial,point,rep,seed,victims,duration,scenario"),
            std::string::npos);
  const auto columns = [](const std::string& line) {
    return 1 + std::count(line.begin(), line.end(), ',');
  };
  for (const std::string& line : cl) {
    EXPECT_EQ(columns(line), columns(cl[0])) << line;
  }
}

// The ThreadSanitizer CI job runs exactly this: a parallel campaign with
// jobs=4 over shared-nothing trials.
TEST(CampaignSmoke, ParallelJobs4) {
  Campaign c;
  c.name = "smoke";
  Scenario s;
  s.name = "smoke-base";
  s.cluster_size = 10;
  s.quiesce = sec(3);
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), msec(1500), fault::Fault::block(),
                 fault::VictimSelector::uniform(1));
  s.run_length = sec(5);
  c.base = s;
  c.repetitions = 4;
  c.base_seed = 5;
  c.jobs = 4;
  const CampaignResult r = run(c);
  ASSERT_EQ(r.trials.size(), 4u);
  for (std::size_t i = 1; i < r.trials.size(); ++i) {
    EXPECT_NE(r.trials[i].seed, r.trials[0].seed);
  }
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_EQ(r.points[0].trials, 4);
  EXPECT_GT(r.points[0].msgs.mean, 0.0);
}

// Per-trial Counter/Histogram isolation: every trial builds its own cluster
// and registry, so no counter value or latency sample may leak between
// repetitions. The pinning check: a trial's retained registry must agree
// exactly with its own scalar fields (an accumulation bug would inflate
// later repetitions' counters past their scalars), and re-running the same
// campaign must reproduce every trial's registry bit for bit.
TEST(CampaignIsolation, TrialRegistriesNeverLeakAcrossRepetitions) {
  Campaign c;
  c.name = "isolation";
  Scenario s;
  s.name = "isolation-base";
  s.cluster_size = 10;
  s.quiesce = sec(3);
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), msec(1500), fault::Fault::block(),
                 fault::VictimSelector::uniform(1));
  s.run_length = sec(5);
  c.base = s;
  c.repetitions = 3;
  c.base_seed = 7;
  c.keep_trial_metrics = true;
  const CampaignResult a = run(c);
  const CampaignResult b = run(c);
  ASSERT_EQ(a.trials.size(), 3u);
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    const RunResult& r = a.trials[i].result;
    EXPECT_EQ(r.metrics.counter_value("net.msgs_sent"), r.msgs_sent);
    EXPECT_EQ(r.metrics.counter_value("net.bytes_sent"), r.bytes_sent);
    // Same seed -> same registry on the rerun; accumulated state anywhere
    // in the engine would break this equality for i > 0.
    EXPECT_EQ(r.metrics.counters(), b.trials[i].result.metrics.counters())
        << "trial " << i;
  }
  // Repetitions use distinct seeds, so identical registries across trials
  // would themselves be suspicious: spot-check that messages differ.
  EXPECT_NE(a.trials[0].result.msgs_sent, a.trials[1].result.msgs_sent);
}

// ---------------------------------------------------------------------------
// fault::Timeline sweeps

Campaign timeline_campaign() {
  Campaign c;
  c.name = "timeline-sweep";
  Scenario s;
  s.name = "timeline-base";
  s.summary = "composed timeline fixture";
  s.cluster_size = 10;
  s.quiesce = sec(5);
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(4), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.timeline.add(sec(1), sec(3), fault::Fault::link_loss(0.4, 0.2),
                 fault::VictimSelector::uniform(2));
  s.run_length = sec(8);
  c.base = s;
  c.axes = {Axis::timeline_duration(0, {sec(2), sec(4)}),
            Axis::timeline_at(1, {sec(0), sec(2)})};
  c.repetitions = 2;
  c.base_seed = 424;
  return c;
}

TEST(CampaignTimelineSweep, AxesMutateTheNamedEntry) {
  const auto grid = expand_grid(timeline_campaign());
  ASSERT_EQ(grid.size(), 4u);
  // Last axis fastest: points 0/1 share entry-0 duration 2 s.
  EXPECT_EQ(grid[0].scenario.timeline.entries()[0].duration, sec(2));
  EXPECT_EQ(grid[0].scenario.timeline.entries()[1].at, sec(0));
  EXPECT_EQ(grid[1].scenario.timeline.entries()[1].at, sec(2));
  EXPECT_EQ(grid[3].scenario.timeline.entries()[0].duration, sec(4));
  EXPECT_EQ(grid[0].labels, (std::vector<std::string>{"e0+2000ms", "e1@0ms"}));
  // Distinct salts per point (workload axis semantics).
  EXPECT_NE(grid[0].salts, grid[1].salts);
}

TEST(CampaignTimelineSweep, SweepingAMissingEntryThrows) {
  Campaign c = timeline_campaign();
  c.axes = {Axis::timeline_at(7, {sec(1)})};
  EXPECT_THROW(expand_grid(c), std::out_of_range);
}

TEST(CampaignTimelineSweep, TimelineParameterSweepIsJobsInvariant) {
  Campaign c = timeline_campaign();
  c.keep_trial_metrics = true;
  c.jobs = 1;
  const CampaignResult seq = run(c);
  c.jobs = 8;
  const CampaignResult par = run(c);
  ASSERT_EQ(seq.trials.size(), 8u);
  ASSERT_EQ(par.trials.size(), seq.trials.size());
  for (std::size_t i = 0; i < seq.trials.size(); ++i) {
    expect_same_trial(seq.trials[i], par.trials[i]);
  }
  // The injected faults left traces in at least some grid cells.
  std::int64_t fault_drops = 0;
  for (const TrialResult& t : seq.trials) {
    fault_drops += t.result.metrics.counter_value("net.dropped.fault_loss");
  }
  EXPECT_GT(fault_drops, 0);
}

}  // namespace
}  // namespace lifeguard::harness
