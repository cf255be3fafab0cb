// Integration: cluster formation, convergence and steady-state behaviour on
// the simulated substrate.
#include <gtest/gtest.h>

#include "check/tap.h"
#include "member_log.h"
#include "sim/simulator.h"

namespace lifeguard {
namespace {

sim::SimParams params(std::uint64_t seed) {
  sim::SimParams p;
  p.seed = seed;
  return p;
}

TEST(Cluster, SmallClusterConverges) {
  sim::Simulator sim(8, swim::Config::lifeguard(), params(7));
  sim.start_all();
  sim.run_for(sec(10));
  EXPECT_TRUE(sim.converged(8));
  for (int i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim.node(i).members().num_active(), 8) << "node " << i;
  }
}

TEST(Cluster, MediumClusterConvergesWithinQuiesce) {
  // The paper allows 15 s of quiesce for 128 agents; we require the same.
  sim::Simulator sim(64, swim::Config::swim_baseline(), params(11));
  sim.start_all();
  sim.run_for(sec(15));
  EXPECT_TRUE(sim.converged(64));
}

TEST(Cluster, LargeClusterConverges) {
  sim::Simulator sim(128, swim::Config::lifeguard(), params(13));
  sim.start_all();
  sim.run_for(sec(15));
  EXPECT_TRUE(sim.converged(128));
}

TEST(Cluster, SteadyStateProducesNoEvents) {
  sim::Simulator sim(32, swim::Config::lifeguard(), params(17));
  sim.start_all();
  sim.run_for(sec(15));
  // After convergence, run 60 quiet seconds: no suspicions, no failures.
  MemberLog log;
  const check::EventTap tap(sim, {&log});
  sim.run_for(sec(60));
  for (const auto& e : log.events) {
    EXPECT_NE(e.kind, check::TraceEventKind::kSuspect)
        << "spurious suspicion: " << e.describe();
    EXPECT_NE(e.kind, check::TraceEventKind::kFailed)
        << "spurious failure: " << e.describe();
  }
}

TEST(Cluster, DeterministicReplay) {
  auto fingerprint = [](std::uint64_t seed) {
    sim::Simulator sim(24, swim::Config::lifeguard(), params(seed));
    sim.start_all();
    sim.run_for(sec(30));
    const Metrics m = sim.aggregate_metrics();
    return std::make_tuple(m.counter_value("net.msgs_sent"),
                           m.counter_value("net.bytes_sent"),
                           sim.queue().executed());
  };
  EXPECT_EQ(fingerprint(5), fingerprint(5));
  EXPECT_NE(fingerprint(5), fingerprint(6));
}

TEST(Cluster, GracefulLeaveDisseminates) {
  sim::Simulator sim(16, swim::Config::lifeguard(), params(23));
  MemberLog log;
  const check::EventTap tap(sim, {&log});
  sim.start_all();
  sim.run_for(sec(12));
  ASSERT_TRUE(sim.converged(16));

  sim.node(3).leave();
  sim.run_for(sec(5));
  int left_views = 0;
  for (int i = 0; i < sim.size(); ++i) {
    if (i == 3) continue;
    const auto st = sim.node(i).state_of("node-3");
    ASSERT_TRUE(st.has_value());
    if (*st == swim::MemberState::kLeft) ++left_views;
  }
  EXPECT_EQ(left_views, 15);
  // A graceful leave is NOT a failure event anywhere.
  for (const auto& e : log.events) {
    EXPECT_NE(e.kind, check::TraceEventKind::kFailed);
  }
}

TEST(Cluster, LateJoinerIsAbsorbed) {
  sim::Simulator sim(12, swim::Config::lifeguard(), params(29));
  // Start everyone but node 11; it joins late.
  for (int i = 0; i < 11; ++i) sim.node(i).start();
  for (int i = 1; i < 11; ++i) {
    sim.node(i).join({sim::sim_address(0)});
  }
  sim.run_for(sec(10));
  EXPECT_EQ(sim.node(0).members().num_active(), 11);

  sim.node(11).start();
  sim.node(11).join({sim::sim_address(4)});  // any member works as seed
  sim.run_for(sec(8));
  EXPECT_TRUE(sim.converged(12));
}

}  // namespace
}  // namespace lifeguard
