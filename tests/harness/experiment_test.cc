// Harness: the paper's §V experiment shapes — threshold (§V-D1), interval
// (§V-D2) and CPU stress (Fig. 1) — produce sane, reproducible
// measurements through harness::run.
#include <gtest/gtest.h>

#include <set>

#include "harness/campaign.h"
#include "harness/scenario.h"

namespace lifeguard::harness {
namespace {

/// A `nodes`-member cluster under one uniform-victim fault entry over
/// `span`, observed for `run_length`.
Scenario experiment(int nodes, const swim::Config& cfg, std::uint64_t seed,
                    fault::Fault f, int victims, Duration span,
                    Duration run_length) {
  Scenario s;
  s.name = "experiment";
  s.cluster_size = nodes;
  s.config = cfg;
  s.seed = seed;
  s.timeline.add(sec(0), span, f, fault::VictimSelector::uniform(victims));
  s.run_length = run_length;
  return s;
}

TEST(Experiment, ThresholdDetectsLongAnomalies) {
  const RunResult r =
      run(experiment(64, swim::Config::swim_baseline(), 301,
                     fault::Fault::block(), 4, msec(32768), sec(60)));
  ASSERT_EQ(r.victims.size(), 4u);
  // All four victims detected; latency ≈ probe (1-2 s) + timeout
  // (5·log10(64) ≈ 9 s).
  ASSERT_EQ(r.first_detect.size(), 4u);
  for (double t : r.first_detect) {
    EXPECT_GT(t, 8.0);
    EXPECT_LT(t, 20.0);
  }
  // Dissemination completes shortly after detection.
  ASSERT_FALSE(r.full_dissem.empty());
  for (std::size_t i = 0; i < r.full_dissem.size(); ++i) {
    EXPECT_GE(r.full_dissem[i], r.first_detect[i] - 1e-9);
  }
}

TEST(Experiment, ThresholdShortAnomalyYieldsNoDetections) {
  // 128 ms is far below the suspicion timeout.
  const RunResult r =
      run(experiment(64, swim::Config::swim_baseline(), 303,
                     fault::Fault::block(), 4, msec(128), sec(40)));
  EXPECT_TRUE(r.first_detect.empty());
  EXPECT_EQ(r.fp_events, 0);
}

TEST(Experiment, ReproducibleForSameSeed) {
  const Scenario s = experiment(
      48, swim::Config::swim_baseline(), 305,
      fault::Fault::interval_block(msec(16384), msec(4)), 8, sec(60), sec(60));
  const RunResult a = run(s);
  const RunResult b = run(s);
  EXPECT_EQ(a.fp_events, b.fp_events);
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.victims, b.victims);
}

TEST(Experiment, VictimCountMatchesRequest) {
  const RunResult r = run(experiment(
      32, swim::Config::lifeguard(), 307,
      fault::Fault::interval_block(msec(512), msec(256)), 5, sec(20), sec(20)));
  EXPECT_EQ(r.victims.size(), 5u);
  std::set<int> distinct(r.victims.begin(), r.victims.end());
  EXPECT_EQ(distinct.size(), 5u);
  EXPECT_GT(r.msgs_sent, 0);
  EXPECT_GT(r.bytes_sent, 0);
}

TEST(Experiment, StressRunsAndReportsLoad) {
  const RunResult r =
      run(experiment(32, swim::Config::lifeguard(), 309,
                     fault::Fault::stressed(), 3, sec(60), sec(60)));
  EXPECT_EQ(r.victims.size(), 3u);
  EXPECT_GT(r.msgs_sent, 0);
}

TEST(Experiment, Table1ConfigsMatchPaperOrder) {
  const auto configs = table1_configs(5.0, 6.0);
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].name, "SWIM");
  EXPECT_EQ(configs[1].name, "LHA-Probe");
  EXPECT_EQ(configs[2].name, "LHA-Suspicion");
  EXPECT_EQ(configs[3].name, "Buddy System");
  EXPECT_EQ(configs[4].name, "Lifeguard");
  // Tuning applies only to LHA-Suspicion configs.
  const auto tuned = table1_configs(2.0, 4.0);
  EXPECT_DOUBLE_EQ(tuned[4].config.suspicion_alpha, 2.0);
  EXPECT_DOUBLE_EQ(tuned[4].config.suspicion_beta, 4.0);
  EXPECT_DOUBLE_EQ(tuned[0].config.suspicion_alpha, 5.0);  // SWIM fixed
  EXPECT_DOUBLE_EQ(tuned[0].config.suspicion_beta, 1.0);
}

}  // namespace
}  // namespace lifeguard::harness
