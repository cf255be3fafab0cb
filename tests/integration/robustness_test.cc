// Parameterized robustness sweep: across cluster sizes, configurations and
// network conditions, the cluster must converge and stay stable — the
// blanket invariants a membership library owes its users.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "sim/simulator.h"

namespace lifeguard {
namespace {

struct Case {
  int cluster;
  bool lifeguard;
  double loss;
};

// Without this gtest prints the parameter as its raw bytes, struct padding
// included, so the listed test names (and the ctest names derived from
// them) would differ from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "n" << c.cluster << (c.lifeguard ? "/lifeguard" : "/swim")
      << "/loss" << c.loss;
}

class Robustness : public ::testing::TestWithParam<Case> {};

TEST_P(Robustness, ConvergesAndStaysStable) {
  const Case c = GetParam();
  sim::SimParams p;
  p.seed = 600 + static_cast<std::uint64_t>(c.cluster) +
           static_cast<std::uint64_t>(c.loss * 100);
  p.network.udp_loss = c.loss;
  sim::Simulator sim(c.cluster,
                     c.lifeguard ? swim::Config::lifeguard()
                                 : swim::Config::swim_baseline(),
                     p);
  sim.start_all();
  sim.run_for(sec(20));
  EXPECT_TRUE(sim.converged(c.cluster))
      << "n=" << c.cluster << " loss=" << c.loss;

  // 60 quiet seconds: nobody may be declared failed.
  sim.run_for(sec(60));
  for (int i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim.node(i).members().num_active(), c.cluster) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Robustness,
    ::testing::Values(Case{4, true, 0.0}, Case{4, false, 0.0},
                      Case{16, true, 0.0}, Case{16, false, 0.05},
                      Case{48, true, 0.02}, Case{48, false, 0.0},
                      Case{96, true, 0.0}, Case{96, true, 0.05},
                      Case{128, false, 0.02}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return "n" + std::to_string(c.cluster) +
             (c.lifeguard ? "_lifeguard" : "_swim") + "_loss" +
             std::to_string(static_cast<int>(c.loss * 100));
    });

TEST(RobustnessExtra, SurvivesAnomalyStorm) {
  // Half the cluster cycles through randomized anomalies for two minutes;
  // afterwards every healthy view must fully heal.
  sim::SimParams p;
  p.seed = 777;
  sim::Simulator sim(32, swim::Config::lifeguard(), p);
  sim.start_all();
  sim.run_for(sec(15));
  ASSERT_TRUE(sim.converged(32));

  Rng storm(9);
  for (int v = 0; v < 16; ++v) {
    TimePoint t = sim.now() + msec(storm.uniform_range(0, 5000));
    const TimePoint end = sim.now() + sec(120);
    while (t < end) {
      const Duration block{storm.uniform_range(500'000, 20'000'000)};
      const TimePoint unblock_at = t + block;
      sim.at(t, [&sim, v] { sim.block_node(v); });
      sim.at(unblock_at, [&sim, v] { sim.unblock_node(v); });
      t = unblock_at + Duration{storm.uniform_range(100'000, 3'000'000)};
    }
  }
  sim.run_for(sec(120));
  // Storm over; allow recovery (refutations + reconnect + push-pull).
  sim.run_for(sec(90));
  for (int i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim.node(i).members().num_active(), 32) << "node " << i;
  }
}

TEST(RobustnessExtra, ChurnJoinLeaveUnderLoss) {
  // Nodes join late and leave gracefully while 5% of UDP drops; views must
  // track the true membership.
  sim::SimParams p;
  p.seed = 88;
  p.network.udp_loss = 0.05;
  sim::Simulator sim(24, swim::Config::lifeguard(), p);
  for (int i = 0; i < 16; ++i) sim.node(i).start();
  for (int i = 1; i < 16; ++i) sim.node(i).join({sim::sim_address(0)});
  sim.run_for(sec(15));
  EXPECT_EQ(sim.node(0).members().num_active(), 16);

  // Eight more join through random seeds.
  for (int i = 16; i < 24; ++i) {
    sim.node(i).start();
    sim.node(i).join({sim::sim_address(i % 16)});
  }
  sim.run_for(sec(15));
  EXPECT_TRUE(sim.converged(24));

  // Four leave gracefully.
  for (int i = 4; i < 8; ++i) sim.node(i).leave();
  sim.run_for(sec(15));
  for (int i : {0, 10, 20}) {
    EXPECT_EQ(sim.node(i).members().num_active(), 20) << "node " << i;
  }
}

}  // namespace
}  // namespace lifeguard
