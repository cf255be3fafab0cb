// Simulator::restart_node edge cases: restarting a node that never crashed
// (a rolling restart), restarting twice, and metric retention across
// incarnations. Churn faults lean on these semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/tap.h"
#include "sim/simulator.h"
#include "swim/config.h"

namespace lifeguard::sim {
namespace {

SimParams quiet_params(std::uint64_t seed) {
  SimParams p;
  p.seed = seed;
  return p;
}

TEST(SimulatorRestart, RestartOfNeverCrashedNodeIsARollingRestart) {
  Simulator sim(8, swim::Config::lifeguard(), quiet_params(11));
  sim.start_all();
  sim.run_for(sec(15));
  ASSERT_TRUE(sim.converged(8));

  // No crash first: the running node is torn down (its destructor stops it)
  // and replaced by a fresh incarnation that rejoins through node 0.
  sim.restart_node(3);
  EXPECT_TRUE(sim.node(3).running());
  sim.run_for(sec(30));
  EXPECT_TRUE(sim.converged(8));
  // The new incarnation starts from a clean slate and re-learned the view.
  EXPECT_EQ(sim.node(3).members().num_active(), 8);
}

TEST(SimulatorRestart, DoubleRestartConvergesAndKeepsRetiredMetrics) {
  Simulator sim(8, swim::Config::lifeguard(), quiet_params(12));
  sim.start_all();
  sim.run_for(sec(15));
  const std::int64_t msgs_before =
      sim.aggregate_metrics().counter_value("net.msgs_sent");
  ASSERT_GT(msgs_before, 0);

  sim.crash_node(5);
  sim.run_for(sec(5));
  sim.restart_node(5);
  sim.run_for(msec(100));
  sim.restart_node(5);  // restart the restarted node again, back to back
  sim.run_for(sec(30));
  EXPECT_TRUE(sim.converged(8));

  // Messages sent by the retired incarnations are not lost from the
  // aggregate.
  EXPECT_GT(sim.aggregate_metrics().counter_value("net.msgs_sent"),
            msgs_before);
}

TEST(SimulatorRestart, RestartedNodeIsUnblockedAndDeliverable) {
  Simulator sim(6, swim::Config::lifeguard(), quiet_params(13));
  sim.start_all();
  sim.run_for(sec(15));
  // A block that was active when the node died must not leak into the fresh
  // incarnation (fault spans and churn cycles can overlap).
  sim.block_node(2);
  sim.crash_node(2);
  sim.run_for(sec(10));
  sim.restart_node(2);
  EXPECT_FALSE(sim.is_blocked(2));
  sim.run_for(sec(30));
  EXPECT_TRUE(sim.converged(6));
}

/// Keeps node-4's records, every incarnation's, probe spans included.
struct Node4Log final : check::TraceSink {
  void on_trace_event(const check::TraceEvent& e) override {
    if (e.node == 4) events.push_back(e);
  }
  bool wants_probe_spans() const override { return true; }
  std::vector<check::TraceEvent> events;
};

TEST(SimulatorRestart, EventLogOfPreviousIncarnationIsRetained) {
  Simulator sim(6, swim::Config::lifeguard(), quiet_params(14));
  Node4Log log;
  const check::EventTap tap(sim, {&log});
  sim.start_all();
  sim.run_for(sec(15));
  const std::size_t events_before = log.events.size();
  ASSERT_GT(events_before, 0u);
  sim.crash_node(4);
  sim.run_for(sec(15));
  const TimePoint restarted_at = sim.now();
  sim.restart_node(4);
  sim.run_for(sec(20));
  // The slot's observer survives the swap: the sink keeps everything it
  // had, and the fresh incarnation reports to it too — it re-learns the
  // view and probes its peers.
  EXPECT_GE(log.events.size(), events_before);
  const auto since_restart = [&](check::TraceEventKind kind) {
    return std::any_of(log.events.begin(), log.events.end(),
                       [&](const check::TraceEvent& e) {
                         return e.at >= restarted_at && e.kind == kind;
                       });
  };
  EXPECT_TRUE(since_restart(check::TraceEventKind::kJoin));
  EXPECT_TRUE(since_restart(check::TraceEventKind::kProbeStart));
}

}  // namespace
}  // namespace lifeguard::sim
