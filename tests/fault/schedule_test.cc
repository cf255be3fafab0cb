// fault::lower — one Timeline lowered into the action schedule both backends
// execute — and the simulator's execution of it (FaultInjector::inject).
// The per-kind shapes must hold on both tiers: interval cycles complete,
// churn spares the rejoin seed, stress ends unblocked, partition claims and
// link-fault overlays are keyed by entry.
#include "fault/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "check/events.h"
#include "check/tap.h"
#include "fault/injector.h"
#include "sim/simulator.h"

namespace lifeguard::fault {
namespace {

/// Every (time, node) a `kind` action touches, in schedule order.
std::vector<std::pair<Duration, int>> touches(const Schedule& plan,
                                              ActionKind kind) {
  std::vector<std::pair<Duration, int>> out;
  for (const Action& a : plan.actions) {
    if (a.kind != kind) continue;
    for (int v : a.nodes) out.emplace_back(a.at, v);
  }
  return out;
}

std::vector<Action> actions_of(const Schedule& plan, ActionKind kind) {
  std::vector<Action> out;
  for (const Action& a : plan.actions) {
    if (a.kind == kind) out.push_back(a);
  }
  return out;
}

sim::Simulator make_sim(int n = 8) {
  sim::SimParams p;
  p.seed = 21;
  return sim::Simulator(n, swim::Config::lifeguard(), p);
}

// ---------------------------------------------------------------------------
// The §V-D anomaly shapes, executed on a simulator

TEST(Anomaly, PickVictimsDistinctAndInRange) {
  Timeline tl;
  tl.add(sec(0), sec(5), Fault::block(), VictimSelector::uniform(4));
  Rng rng(21);
  const Schedule plan = lower(tl, 10, sec(10), rng);
  ASSERT_EQ(plan.entry_victims.size(), 1u);
  const std::vector<int>& v = plan.entry_victims[0];
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(std::set<int>(v.begin(), v.end()).size(), 4u);
  for (int i : v) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 10);
  }
  EXPECT_EQ(plan.victims, v);
}

TEST(Anomaly, PickVictimsClampsToClusterSize) {
  Timeline tl;
  tl.add(sec(0), sec(5), Fault::block(), VictimSelector::uniform(99));
  Rng rng(21);
  const Schedule plan = lower(tl, 3, sec(10), rng);
  EXPECT_EQ(plan.entry_victims[0].size(), 3u);
  EXPECT_EQ(touches(plan, ActionKind::kBlock).size(), 3u);
}

TEST(Anomaly, ThresholdBlocksAndUnblocksOnSchedule) {
  auto sim = make_sim();
  Timeline tl;
  tl.add(sec(1), sec(2), Fault::block(), VictimSelector::nodes({1, 3}));
  FaultInjector().inject(sim, tl, TimePoint{}, sec(5));

  sim.run_for(msec(500));
  EXPECT_FALSE(sim.is_blocked(1));
  sim.run_for(sec(1));  // t = 1.5 s: inside the anomaly
  EXPECT_TRUE(sim.is_blocked(1));
  EXPECT_TRUE(sim.is_blocked(3));
  EXPECT_FALSE(sim.is_blocked(0));
  sim.run_for(sec(2));  // t = 3.5 s: past the end
  EXPECT_FALSE(sim.is_blocked(1));
  EXPECT_FALSE(sim.is_blocked(3));
}

TEST(Anomaly, IntervalCyclesInLockstep) {
  auto sim = make_sim();
  // 1 s blocked / 1 s open over [1 s, 6 s).
  Timeline tl;
  tl.add(sec(1), sec(5), Fault::interval_block(sec(1), sec(1)),
         VictimSelector::nodes({0, 2}));
  FaultInjector().inject(sim, tl, TimePoint{}, sec(6));
  struct Sample {
    double t;
    bool expect_blocked;
  };
  const Sample samples[] = {{0.5, false}, {1.5, true}, {2.5, false},
                            {3.5, true},  {4.5, false}, {5.5, true},
                            {7.5, false}};
  for (const auto& s : samples) {
    sim.run_until(TimePoint{} + sec_f(s.t));
    EXPECT_EQ(sim.is_blocked(0), s.expect_blocked) << "t=" << s.t;
    EXPECT_EQ(sim.is_blocked(2), s.expect_blocked) << "t=" << s.t;
  }
}

TEST(Anomaly, IntervalFinishesLastCycleBeyondEnd) {
  auto sim = make_sim();
  // Cycle = 3 s blocked + 1 s open over [0 s, 5 s): cycles start at 0 and
  // 4, the second one runs past the span to completion (paper §V-D2).
  Timeline tl;
  tl.add(sec(0), sec(5), Fault::interval_block(sec(3), sec(1)),
         VictimSelector::nodes({1}));
  FaultInjector().inject(sim, tl, TimePoint{}, sec(5));
  sim.run_until(TimePoint{} + sec_f(6.5));
  EXPECT_TRUE(sim.is_blocked(1));  // second anomaly: 4 s .. 7 s
  sim.run_until(TimePoint{} + sec_f(7.5));
  EXPECT_FALSE(sim.is_blocked(1));
}

TEST(Anomaly, StressCyclesIndependentlyAndEndsUnblocked) {
  auto sim = make_sim();
  StressParams p;
  p.block_min = msec(100);
  p.block_max = msec(300);
  p.run_min = msec(10);
  p.run_max = msec(50);
  Timeline tl;
  tl.add(sec(1), sec(9), Fault::stressed(p), VictimSelector::nodes({0, 1}));
  FaultInjector().inject(sim, tl, TimePoint{}, sec(9));

  // Sample densely: each victim must toggle multiple times, and the two
  // victims' schedules must not be identical (independent randomness).
  int blocked_samples_0 = 0, blocked_samples_1 = 0, divergent = 0;
  for (int i = 0; i < 800; ++i) {
    sim.run_for(msec(10));
    const bool b0 = sim.is_blocked(0);
    const bool b1 = sim.is_blocked(1);
    blocked_samples_0 += b0 ? 1 : 0;
    blocked_samples_1 += b1 ? 1 : 0;
    divergent += b0 != b1 ? 1 : 0;
  }
  EXPECT_GT(blocked_samples_0, 100);
  EXPECT_GT(blocked_samples_1, 100);
  EXPECT_GT(divergent, 20);
  sim.run_until(TimePoint{} + sec(12));
  EXPECT_FALSE(sim.is_blocked(0));
  EXPECT_FALSE(sim.is_blocked(1));
  EXPECT_FALSE(sim.is_blocked(2));  // never touched
}

// ---------------------------------------------------------------------------
// The lowered schedule the live tier fires at wall-clock offsets

TEST(LiveFaultPlan, BlockLowersToStopContPair) {
  Timeline tl;
  tl.add(sec(2), sec(5), Fault::block(), VictimSelector::nodes({3, 6}));
  Rng rng(1);
  const Schedule plan = lower(tl, 8, sec(20), rng);

  const auto stops = touches(plan, ActionKind::kBlock);
  const auto conts = touches(plan, ActionKind::kUnblock);
  ASSERT_EQ(stops.size(), 2u);
  ASSERT_EQ(conts.size(), 2u);
  for (const auto& [at, node] : stops) EXPECT_EQ(at, sec(2));
  for (const auto& [at, node] : conts) EXPECT_EQ(at, sec(7));
  EXPECT_EQ(plan.victims, (std::vector<int>{3, 6}));
  EXPECT_EQ(plan.entry_victims.size(), 1u);

  // Actions are time-sorted and the entry's start marker precedes its
  // same-instant block (stable sort + markers generated first).
  ASSERT_GE(plan.actions.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      plan.actions.begin(), plan.actions.end(),
      [](const Action& a, const Action& b) { return a.at < b.at; }));
  EXPECT_EQ(plan.actions.front().kind, ActionKind::kFaultStart);
}

TEST(LiveFaultPlan, IntervalCyclesBegunBeforeEndComplete) {
  // 3s period + 1s gap over a 10s span: cycles start at 0, 4, 8 — the last
  // one begins inside the span and runs to completion at 11s.
  Timeline tl;
  tl.add(sec(0), sec(10), Fault::interval_block(sec(3), sec(1)),
         VictimSelector::nodes({2}));
  Rng rng(1);
  const Schedule plan = lower(tl, 8, sec(20), rng);

  const auto stops = touches(plan, ActionKind::kBlock);
  const auto conts = touches(plan, ActionKind::kUnblock);
  ASSERT_EQ(stops.size(), 3u);
  ASSERT_EQ(conts.size(), 3u);
  EXPECT_EQ(stops[0].first, sec(0));
  EXPECT_EQ(stops[1].first, sec(4));
  EXPECT_EQ(stops[2].first, sec(8));
  EXPECT_EQ(conts[2].first, sec(11));  // completes past span end
  // plan_total_run stretches the observation window to cover it.
  EXPECT_GE(plan.total_run.us, sec(11).us);
}

TEST(LiveFaultPlan, ChurnSparesTheRejoinSeedAndPairsKillRespawn) {
  // Cycle (2s down + 3s up) <= span, so whatever phase the rng draws, at
  // least one kill lands inside the span (a phase past the span end would
  // legitimately yield no churn at all).
  Timeline tl;
  tl.add(sec(0), sec(10), Fault::churn(sec(2), sec(3)),
         VictimSelector::nodes({0, 4}));
  Rng rng(7);
  const Schedule plan = lower(tl, 8, sec(20), rng);

  const auto kills = touches(plan, ActionKind::kCrash);
  const auto spawns = touches(plan, ActionKind::kRestart);
  ASSERT_FALSE(kills.empty());
  ASSERT_EQ(kills.size(), spawns.size());
  for (const auto& [at, node] : kills) EXPECT_NE(node, 0);  // the seed
  for (std::size_t i = 0; i < kills.size(); ++i) {
    EXPECT_EQ(spawns[i].second, kills[i].second);
    EXPECT_EQ(spawns[i].first, kills[i].first + sec(2));  // one downtime
  }
}

TEST(LiveFaultPlan, FlappingDrawsAPhasePerVictimInsideOneCycle) {
  Timeline tl;
  tl.add(sec(0), sec(30), Fault::flapping(sec(4), sec(2)),
         VictimSelector::nodes({1, 2, 3}));
  Rng rng(42);
  const Schedule plan = lower(tl, 8, sec(30), rng);

  // Every victim's first block lands inside [0, cycle) and later blocks
  // repeat at the 6s cycle.
  for (int v : {1, 2, 3}) {
    std::vector<Duration> at;
    for (const auto& [t, node] : touches(plan, ActionKind::kBlock)) {
      if (node == v) at.push_back(t);
    }
    ASSERT_GE(at.size(), 2u) << "victim " << v;
    EXPECT_LT(at[0].us, sec(6).us);
    for (std::size_t i = 1; i < at.size(); ++i) {
      EXPECT_EQ(at[i].us - at[i - 1].us, sec(6).us);
    }
  }
}

TEST(LiveFaultPlan, NetworkFaultsBecomeTokenedNetemOverlays) {
  Timeline tl;
  tl.add(sec(0), sec(10), Fault::link_loss(0.25, 0.1),
         VictimSelector::nodes({2, 5}));
  tl.add(sec(3), sec(4), Fault::latency(msec(30), msec(20)),
         VictimSelector::nodes({2}));
  Rng rng(1);
  const Schedule plan = lower(tl, 8, sec(20), rng);

  const auto adds = actions_of(plan, ActionKind::kLinkFaultAdd);
  const auto dels = actions_of(plan, ActionKind::kLinkFaultDel);
  ASSERT_EQ(adds.size(), 2u);
  ASSERT_EQ(dels.size(), 2u);
  // Overlays are keyed by timeline entry, so node 2 can carry both and
  // shed them independently.
  EXPECT_EQ(adds[0].entry, 0);
  EXPECT_EQ(adds[0].nodes, (std::vector<int>{2, 5}));
  EXPECT_EQ(adds[1].entry, 1);
  EXPECT_EQ(adds[1].nodes, (std::vector<int>{2}));
  EXPECT_EQ(dels[0].at, sec(7));  // the latency entry ends first
  EXPECT_EQ(dels[0].entry, 1);
  const auto loss = link_fault_of(
      tl.entries()[static_cast<std::size_t>(adds[0].entry)].fault);
  EXPECT_DOUBLE_EQ(loss.egress_loss, 0.25);
  EXPECT_DOUBLE_EQ(loss.ingress_loss, 0.1);
  const auto latency = link_fault_of(
      tl.entries()[static_cast<std::size_t>(adds[1].entry)].fault);
  EXPECT_EQ(latency.extra_latency, msec(30));
  EXPECT_EQ(latency.jitter, msec(20));
}

TEST(LiveFaultPlan, PartitionClaimsCarryTheirIsland) {
  Timeline tl;
  tl.add(sec(2), sec(4), Fault::partition(), VictimSelector::island(3, 4));
  Rng rng(1);
  const Schedule plan = lower(tl, 10, sec(20), rng);

  const auto adds = actions_of(plan, ActionKind::kPartitionAdd);
  const auto dels = actions_of(plan, ActionKind::kPartitionDel);
  ASSERT_EQ(adds.size(), 1u);
  ASSERT_EQ(dels.size(), 1u);
  EXPECT_EQ(adds[0].at, sec(2));
  EXPECT_EQ(dels[0].at, sec(6));
  EXPECT_EQ(adds[0].nodes, (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(adds[0].entry, dels[0].entry);
}

TEST(LiveFaultPlan, MarkersBracketEveryEntry) {
  Timeline tl;
  tl.add(sec(0), sec(8), Fault::stressed(), VictimSelector::nodes({7}));
  tl.add(sec(2), sec(4), Fault::partition(), VictimSelector::island(3, 4));
  Rng rng(3);
  const Schedule plan = lower(tl, 10, sec(10), rng);

  EXPECT_EQ(actions_of(plan, ActionKind::kFaultStart).size(), 2u);
  EXPECT_EQ(actions_of(plan, ActionKind::kFaultEnd).size(), 2u);
  EXPECT_EQ(plan.entry_victims.size(), 2u);
  // Every stress block pairs with an unblock, and the one stress victim
  // gets a trailing unblock at the first cycle start past the span.
  const auto blocks = touches(plan, ActionKind::kBlock);
  const auto unblocks = touches(plan, ActionKind::kUnblock);
  ASSERT_EQ(unblocks.size(), blocks.size() + 1);
  EXPECT_GE(unblocks.back().first, sec(8));
}

TEST(LiveFaultPlan, VictimUnionDeduplicatesInFirstOccurrenceOrder) {
  Timeline tl;
  tl.add(sec(0), sec(5), Fault::block(), VictimSelector::nodes({5, 2}));
  tl.add(sec(6), sec(2), Fault::block(), VictimSelector::nodes({2, 7}));
  Rng rng(1);
  const Schedule plan = lower(tl, 8, sec(20), rng);
  EXPECT_EQ(plan.victims, (std::vector<int>{5, 2, 7}));
}

// ---------------------------------------------------------------------------
// The simulator executes exactly the lowered schedule

/// Keeps the control and fault-span events of the merged stream.
class ControlSink final : public check::TraceSink {
 public:
  void on_trace_event(const check::TraceEvent& e) override {
    switch (e.kind) {
      case check::TraceEventKind::kBlock:
      case check::TraceEventKind::kUnblock:
      case check::TraceEventKind::kCrash:
      case check::TraceEventKind::kRestart:
      case check::TraceEventKind::kFaultStart:
      case check::TraceEventKind::kFaultEnd:
        events.push_back(e);
        break;
      default:
        break;
    }
  }
  std::vector<check::TraceEvent> events;
};

/// The trace events executing `plan` from `t0` must produce, in order.
std::vector<check::TraceEvent> expected_events(const Schedule& plan,
                                               TimePoint t0) {
  std::vector<check::TraceEvent> out;
  auto push = [&](Duration at, check::TraceEventKind kind, int node,
                  int peer) {
    check::TraceEvent e;
    e.at = t0 + at;
    e.kind = kind;
    e.node = node;
    e.peer = peer;
    out.push_back(e);
  };
  for (const Action& a : plan.actions) {
    switch (a.kind) {
      case ActionKind::kFaultStart:
        push(a.at, check::TraceEventKind::kFaultStart, -1, a.entry);
        break;
      case ActionKind::kFaultEnd:
        push(a.at, check::TraceEventKind::kFaultEnd, -1, a.entry);
        break;
      case ActionKind::kBlock:
        for (int v : a.nodes) push(a.at, check::TraceEventKind::kBlock, v, -1);
        break;
      case ActionKind::kUnblock:
        for (int v : a.nodes) {
          push(a.at, check::TraceEventKind::kUnblock, v, -1);
        }
        break;
      case ActionKind::kCrash:
        for (int v : a.nodes) push(a.at, check::TraceEventKind::kCrash, v, -1);
        break;
      case ActionKind::kRestart:
        for (int v : a.nodes) {
          push(a.at, check::TraceEventKind::kRestart, v, -1);
        }
        break;
      default:
        break;  // partitions and link faults leave no control event
    }
  }
  return out;
}

TEST(Schedule, SimulatorExecutesEveryKindAsLowered) {
  StressParams stress;
  stress.block_min = msec(500);
  stress.block_max = sec(1);
  stress.run_min = msec(100);
  stress.run_max = msec(300);
  Timeline tl;
  tl.add(sec(1), sec(4), Fault::block(), VictimSelector::nodes({1, 2}));
  tl.add(sec(2), sec(6), Fault::interval_block(sec(1), msec(500)),
         VictimSelector::uniform(2));
  tl.add(sec(0), sec(8), Fault::stressed(stress), VictimSelector::nodes({3}));
  tl.add(sec(1), sec(8), Fault::flapping(sec(1), msec(500)),
         VictimSelector::uniform(2));
  tl.add(sec(2), sec(10), Fault::churn(sec(2), sec(3)),
         VictimSelector::nodes({4, 5}));
  tl.add(sec(3), sec(4), Fault::partition(), VictimSelector::island(3, 6));
  tl.add(sec(0), sec(5), Fault::link_loss(0.3, 0.0),
         VictimSelector::nodes({7}));
  tl.add(sec(1), sec(4), Fault::latency(msec(20), msec(5)),
         VictimSelector::uniform(2));
  tl.add(sec(2), sec(4), Fault::duplicate(0.2), VictimSelector::uniform(1));
  tl.add(sec(3), sec(4), Fault::reorder(0.2, msec(100)),
         VictimSelector::uniform(1));
  ASSERT_TRUE(tl.validate(12).empty());
  std::set<FaultKind> kinds;
  for (const TimelineEntry& e : tl.entries()) kinds.insert(e.fault.kind);
  ASSERT_EQ(kinds.size(), all_fault_kinds().size());

  auto sim = make_sim(12);
  ControlSink sink;
  check::EventTap tap(sim, {&sink});
  sim.start_all();
  sim.run_for(sec(10));
  sink.events.clear();  // nothing before injection is a fault event

  Rng before = sim.rng();
  const TimePoint t0 = sim.now();
  const Schedule plan = FaultInjector().inject(sim, tl, t0, sec(12));
  // The injector lowers with the simulator's own Rng, nothing else.
  const Schedule again = lower(tl, 12, sec(12), before);
  EXPECT_EQ(plan.actions, again.actions);
  EXPECT_EQ(plan.entry_victims, again.entry_victims);

  // Run past the last action (a stress tail may outlast total_run).
  sim.run_until(t0 + std::max(plan.total_run, plan.actions.back().at) +
                sec(1));
  const auto want = expected_events(plan, t0);
  ASSERT_EQ(sink.events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sink.events[i], want[i])
        << "event " << i << ": got " << sink.events[i].describe()
        << ", want " << want[i].describe();
  }
}

}  // namespace
}  // namespace lifeguard::fault
