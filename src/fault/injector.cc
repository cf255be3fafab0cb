#include "fault/injector.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lifeguard::fault {

Duration FaultInjector::plan_total_run(const Timeline& tl,
                                       Duration run_length) {
  // The run must cover the observation window, every entry's own minimum
  // quiet point, and the largest per-kind settle slack.
  Duration total = run_length;
  Duration slack{};
  for (const TimelineEntry& e : tl.entries()) {
    Duration min_end = e.at + e.duration;
    Duration sl{};
    switch (e.fault.kind) {
      case FaultKind::kBlock:
      case FaultKind::kLinkLoss:
      case FaultKind::kLatency:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
        break;
      case FaultKind::kIntervalBlock:
        // Cycles begun inside the span complete ("the test ends at the end
        // of the next anomalous period", §V-D2).
        min_end =
            e.at + cycle_aligned_length(e.duration, e.fault.period, e.fault.gap);
        sl = sec(1);
        break;
      case FaultKind::kStress:
        sl = sec(2);
        break;
      case FaultKind::kPartition:
        sl = sec(1);
        break;
      case FaultKind::kFlapping:
        // A phase-shifted final cycle may close up to one period late.
        min_end = e.at + e.duration + e.fault.period;
        sl = sec(1);
        break;
      case FaultKind::kChurn:
        // The last crash before span end restarts at most one downtime
        // later; give the rejoin time to disseminate.
        min_end = e.at + e.duration + e.fault.period;
        sl = sec(2);
        break;
    }
    total = std::max(total, min_end);
    slack = std::max(slack, sl);
  }
  return total + slack;
}

namespace {

/// What the callbacks of one injected schedule share: the schedule itself,
/// the partition claims, and per entry its link-fault overlay and the
/// (node, token) pairs it installed.
struct SimFaultState {
  Schedule plan;
  PartitionClaims partitions;
  std::vector<LinkFault> link_faults;
  std::vector<std::vector<std::pair<int, int>>> link_tokens;
};

void apply(sim::Simulator& sim, const Action& a, SimFaultState& state) {
  const auto entry = static_cast<std::size_t>(a.entry);
  switch (a.kind) {
    case ActionKind::kFaultStart:
      sim.note(check::TraceEventKind::kFaultStart, -1, a.entry);
      break;
    case ActionKind::kFaultEnd:
      sim.note(check::TraceEventKind::kFaultEnd, -1, a.entry);
      break;
    case ActionKind::kBlock:
      for (int v : a.nodes) sim.block_node(v);
      break;
    case ActionKind::kUnblock:
      for (int v : a.nodes) sim.unblock_node(v);
      break;
    case ActionKind::kCrash:
      for (int v : a.nodes) sim.crash_node(v);
      break;
    case ActionKind::kRestart:
      for (int v : a.nodes) sim.restart_node(v);
      break;
    case ActionKind::kPartitionAdd:
    case ActionKind::kPartitionDel:
      state.partitions.apply(a);
      for (int v : a.nodes) {
        sim.network().set_partition(v, state.partitions.group_of(v));
      }
      break;
    case ActionKind::kLinkFaultAdd:
      for (int v : a.nodes) {
        state.link_tokens[entry].emplace_back(
            v, sim.network().add_link_fault(v, state.link_faults[entry]));
      }
      break;
    case ActionKind::kLinkFaultDel:
      for (const auto& [node, token] : state.link_tokens[entry]) {
        sim.network().remove_link_fault(node, token);
      }
      break;
  }
}

}  // namespace

Schedule FaultInjector::inject(sim::Simulator& sim, const Timeline& tl,
                               TimePoint t0, Duration run_length) const {
  auto state = std::make_shared<SimFaultState>();
  state->plan = lower(tl, sim.size(), run_length, sim.rng());
  for (const TimelineEntry& e : tl.entries()) {
    state->link_faults.push_back(link_fault_of(e.fault));
  }
  state->link_tokens.resize(tl.size());
  // One callback per action; each names its action by index, which keeps
  // the capture small enough to live inside the event queue's Task.
  const std::vector<Action>& actions = state->plan.actions;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    sim.at(t0 + actions[i].at, [&sim, state, i] {
      apply(sim, state->plan.actions[i], *state);
    });
  }
  return state->plan;
}

Schedule FaultInjector::inject(Cluster& cluster, const Timeline& tl,
                               Duration run_length) const {
  sim::Simulator* sim = cluster.simulator();
  if (sim == nullptr) {
    throw std::invalid_argument(
        "FaultInjector: the UDP backend cannot execute fault timelines — use "
        "the sim backend, or the live tier (scenario_runner --backend live)");
  }
  return inject(*sim, tl, sim->now(), run_length);
}

}  // namespace lifeguard::fault
