#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace lifeguard::harness {
namespace {

TEST(Sweep, QuickGridsAreSubsetsOfPaperGrids) {
  ReproOptions quick;  // default: full = false
  ReproOptions full;
  full.full = true;

  const Grid qi = interval_grid(quick);
  const Grid fi = interval_grid(full);
  // Paper Table III values, verbatim, in the full grid.
  EXPECT_EQ(fi.concurrency,
            (std::vector<int>{1, 4, 8, 12, 16, 20, 24, 28, 32}));
  EXPECT_EQ(fi.durations.size(), 6u);
  EXPECT_EQ(fi.intervals.size(), 8u);
  EXPECT_EQ(fi.repetitions, 10);
  EXPECT_EQ(fi.test_length, sec(120));

  // Quick values must all appear in the paper grid.
  for (int c : qi.concurrency) {
    EXPECT_NE(std::find(fi.concurrency.begin(), fi.concurrency.end(), c),
              fi.concurrency.end());
  }
  for (Duration d : qi.durations) {
    EXPECT_NE(std::find(fi.durations.begin(), fi.durations.end(), d),
              fi.durations.end());
  }
  for (Duration i : qi.intervals) {
    EXPECT_NE(std::find(fi.intervals.begin(), fi.intervals.end(), i),
              fi.intervals.end());
  }

  const Grid qt = threshold_grid(quick);
  const Grid ft = threshold_grid(full);
  EXPECT_EQ(ft.durations.size(), 6u);
  for (Duration d : qt.durations) {
    EXPECT_NE(std::find(ft.durations.begin(), ft.durations.end(), d),
              ft.durations.end());
  }
}

TEST(Sweep, RepsOverrideApplies) {
  ReproOptions opt;
  opt.reps_override = 7;
  EXPECT_EQ(interval_grid(opt).repetitions, 7);
  EXPECT_EQ(threshold_grid(opt).repetitions, 7);
}

TEST(Sweep, RunSeedsArePairedAndDistinct) {
  // The sweeps salt trial_seed with the grid point {c, d_us, i_us}. Same
  // grid point -> same seed (paired across configs); different points ->
  // different seeds.
  EXPECT_EQ(trial_seed(42, {8, 1000, 4}, 0), trial_seed(42, {8, 1000, 4}, 0));
  EXPECT_NE(trial_seed(42, {8, 1000, 4}, 0), trial_seed(42, {8, 1000, 4}, 1));
  EXPECT_NE(trial_seed(42, {8, 1000, 4}, 0), trial_seed(42, {9, 1000, 4}, 0));
  EXPECT_NE(trial_seed(42, {8, 1000, 4}, 0), trial_seed(42, {8, 2000, 4}, 0));
  EXPECT_NE(trial_seed(42, {8, 1000, 4}, 0), trial_seed(43, {8, 1000, 4}, 0));
}

TEST(Sweep, TinySweepAggregates) {
  Grid g;
  g.concurrency = {2};
  g.durations = {msec(512)};
  g.intervals = {msec(256)};
  g.repetitions = 1;
  g.cluster_size = 24;
  g.quiesce = sec(10);
  g.test_length = sec(15);
  int calls = 0;
  const auto r = sweep_interval(swim::Config::lifeguard(), g, 7,
                                [&](int done, int total) {
                                  ++calls;
                                  EXPECT_LE(done, total);
                                });
  EXPECT_EQ(r.runs, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_GT(r.msgs, 0);
  EXPECT_EQ(r.fp_by_c.size(), 1u);
  ASSERT_TRUE(r.fp_by_c.contains(2));
}

TEST(Sweep, ThresholdSweepCollectsLatencySamples) {
  Grid g;
  g.concurrency = {2};
  g.durations = {msec(32768)};
  g.repetitions = 1;
  g.cluster_size = 32;
  g.quiesce = sec(10);
  g.observe = sec(50);
  const auto r = sweep_threshold(swim::Config::swim_baseline(), g, 11);
  EXPECT_EQ(r.runs, 1);
  EXPECT_EQ(r.first_detect.count(), 2u);  // both victims detected
}

TEST(Sweep, EnvParsing) {
  ::setenv("REPRO_FULL", "1", 1);
  ::setenv("REPRO_REPS", "3", 1);
  ::setenv("REPRO_SEED", "777", 1);
  const auto opt = ReproOptions::from_env();
  EXPECT_TRUE(opt.full);
  EXPECT_EQ(opt.reps_override, 3);
  EXPECT_EQ(opt.seed, 777u);
  ::unsetenv("REPRO_FULL");
  ::unsetenv("REPRO_REPS");
  ::unsetenv("REPRO_SEED");
  const auto def = ReproOptions::from_env();
  EXPECT_FALSE(def.full);
  EXPECT_EQ(def.reps_override, 0);
  EXPECT_EQ(def.seed, 42u);
}

}  // namespace
}  // namespace lifeguard::harness
