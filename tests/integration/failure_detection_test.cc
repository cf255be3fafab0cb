// Integration: true-positive failure detection — crash a node, verify the
// suspicion pipeline detects and disseminates within the analytical bounds,
// and that recovery (refutation) works for survivable anomalies.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/tap.h"
#include "member_log.h"
#include "sim/simulator.h"
#include "swim/suspicion.h"

namespace lifeguard {
namespace {

sim::SimParams params(std::uint64_t seed) {
  sim::SimParams p;
  p.seed = seed;
  return p;
}

double detect_time(const std::vector<check::TraceEvent>& events, int member,
                   TimePoint after) {
  double first = -1;
  for (const auto& e : events) {
    if (e.kind != check::TraceEventKind::kFailed || e.peer != member) continue;
    if (!e.originated || e.at < after) continue;
    const double t = (e.at - after).seconds();
    if (first < 0 || t < first) first = t;
  }
  return first;
}

int nodes_seeing_dead(sim::Simulator& sim, const std::string& member,
                      int skip) {
  int count = 0;
  for (int i = 0; i < sim.size(); ++i) {
    if (i == skip) continue;
    const auto st = sim.node(i).state_of(member);
    if (st.has_value() && *st == swim::MemberState::kDead) ++count;
  }
  return count;
}

class FailureDetection : public ::testing::TestWithParam<bool> {};

TEST_P(FailureDetection, CrashIsDetectedWithinBound) {
  const bool use_lifeguard = GetParam();
  const swim::Config cfg = use_lifeguard ? swim::Config::lifeguard()
                                         : swim::Config::swim_baseline();
  sim::Simulator sim(32, cfg, params(31));
  MemberLog log;
  const check::EventTap tap(sim, {&log});
  sim.start_all();
  sim.run_for(sec(15));
  ASSERT_TRUE(sim.converged(32));

  const TimePoint crash_at = sim.now();
  sim.crash_node(9);
  sim.run_for(sec(60));

  const double t = detect_time(log.events, 9, crash_at);
  ASSERT_GT(t, 0.0) << "crash never detected";
  // Analytical expectation: probe selection (~seconds) + protocol period
  // (1 s) + suspicion timeout (α·log10(32) ≈ 7.5 s at α=5). Lifeguard's
  // timeout starts at β·Min but decays back to Min via independent
  // confirmations, so both configurations land in the same window.
  const double min_bound =
      swim::suspicion_min(cfg.suspicion_alpha, 32, cfg.probe_interval)
          .seconds();
  EXPECT_GT(t, min_bound) << "detection cannot precede the suspicion timeout";
  EXPECT_LT(t, min_bound + 35.0);

  // Full dissemination: everyone (except the corpse) sees node-9 dead.
  EXPECT_EQ(nodes_seeing_dead(sim, "node-9", 9), 31);
}

INSTANTIATE_TEST_SUITE_P(Configs, FailureDetection, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lifeguard" : "SWIM";
                         });

TEST(FailureDetectionExtra, ShortAnomalySurvivesWithoutFailureEvents) {
  // A 3-second blip is far below the suspicion timeout: the member may be
  // suspected but must never be declared failed.
  sim::Simulator sim(32, swim::Config::lifeguard(), params(37));
  MemberLog log;
  const check::EventTap tap(sim, {&log});
  sim.start_all();
  sim.run_for(sec(15));
  ASSERT_TRUE(sim.converged(32));

  sim.block_node(5);
  sim.run_for(sec(3));
  sim.unblock_node(5);
  sim.run_for(sec(30));

  for (const auto& e : log.events) {
    EXPECT_NE(e.kind, check::TraceEventKind::kFailed) << e.describe();
  }
  for (int i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim.node(i).members().num_active(), 32);
  }
}

TEST(FailureDetectionExtra, RecoveredNodeIsResurrectedEverywhere) {
  // Block long enough to be declared dead, then return: the refutation must
  // resurrect the member in every view (gossip-to-the-dead + incarnation).
  sim::Simulator sim(32, swim::Config::swim_baseline(), params(41));
  sim.start_all();
  sim.run_for(sec(15));
  ASSERT_TRUE(sim.converged(32));

  sim.block_node(7);
  sim.run_for(sec(25));  // > probe + suspicion timeout (~9 s at n=32)
  EXPECT_GT(nodes_seeing_dead(sim, "node-7", 7), 0)
      << "long anomaly should have been declared";
  sim.unblock_node(7);
  sim.run_for(sec(30));

  for (int i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim.node(i).members().num_active(), 32) << "node " << i;
  }
}

TEST(FailureDetectionExtra, MultipleSimultaneousCrashes) {
  sim::Simulator sim(48, swim::Config::lifeguard(), params(43));
  MemberLog log;
  const check::EventTap tap(sim, {&log});
  sim.start_all();
  sim.run_for(sec(15));
  ASSERT_TRUE(sim.converged(48));

  const TimePoint crash_at = sim.now();
  sim.crash_node(1);
  sim.crash_node(2);
  sim.crash_node(3);
  sim.run_for(sec(90));

  for (const int member : {1, 2, 3}) {
    EXPECT_GT(detect_time(log.events, member, crash_at), 0.0) << member;
  }
  for (int i = 4; i < sim.size(); ++i) {
    EXPECT_EQ(sim.node(i).members().num_active(), 45) << "node " << i;
  }
}

}  // namespace
}  // namespace lifeguard
