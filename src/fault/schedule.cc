#include "fault/schedule.h"

#include <algorithm>

#include "fault/injector.h"

namespace lifeguard::fault {

namespace {

/// Appends actions in generation order; lower() stable-sorts them last.
struct Emitter {
  std::vector<Action>& out;
  int entry;

  void at(Duration t, ActionKind kind, std::vector<int> nodes = {}) {
    out.push_back({t, kind, entry, std::move(nodes)});
  }
  /// `nodes` blocked over [t, t + span).
  void blocked(Duration t, Duration span, const std::vector<int>& nodes) {
    at(t, ActionKind::kBlock, nodes);
    at(t + span, ActionKind::kUnblock, nodes);
  }
};

Duration log_uniform(Rng& rng, Duration lo, Duration hi) {
  return Duration{static_cast<std::int64_t>(rng.log_uniform(
      static_cast<double>(lo.us), static_cast<double>(hi.us)))};
}

}  // namespace

Schedule lower(const Timeline& tl, int cluster_size, Duration run_length,
               Rng& rng) {
  Schedule plan;
  plan.total_run = FaultInjector::plan_total_run(tl, run_length);
  plan.entry_victims.reserve(tl.size());

  for (std::size_t i = 0; i < tl.size(); ++i) {
    const TimelineEntry& e = tl.entries()[i];
    const Fault& f = e.fault;
    std::vector<int> victims = e.victims.resolve(
        cluster_size, rng, /*exclude_seed_node=*/f.kind == FaultKind::kChurn);
    const Duration start = e.at;
    const Duration end = e.at + e.duration;
    const Duration cycle = f.period + f.gap;
    Emitter emit{plan.actions, static_cast<int>(i)};

    // Markers first, so the stable sort keeps them ahead of same-instant
    // actions of their own entry.
    emit.at(start, ActionKind::kFaultStart);
    emit.at(end, ActionKind::kFaultEnd);

    switch (f.kind) {
      case FaultKind::kBlock:
        emit.blocked(start, e.duration, victims);
        break;
      case FaultKind::kIntervalBlock:
        if (cycle <= Duration{0}) break;
        for (Duration t = start; t < end; t = t + cycle) {
          emit.blocked(t, f.period, victims);
        }
        break;
      case FaultKind::kStress:
        for (int v : victims) {
          Rng vr = rng.fork();
          Duration t = start + Duration{vr.uniform_range(0, 500000)};
          while (t < end) {
            const Duration block =
                log_uniform(vr, f.stress.block_min, f.stress.block_max);
            const Duration run =
                log_uniform(vr, f.stress.run_min, f.stress.run_max);
            emit.blocked(t, block, {v});
            t = t + block + run;
          }
          emit.at(t, ActionKind::kUnblock, {v});
        }
        break;
      case FaultKind::kFlapping:
        if (cycle <= Duration{0}) break;
        for (int v : victims) {
          const Duration phase{rng.uniform_range(0, cycle.us - 1)};
          for (Duration t = start + phase; t < end; t = t + cycle) {
            emit.blocked(t, f.period, {v});
          }
        }
        break;
      case FaultKind::kChurn:
        if (cycle <= Duration{0}) break;
        for (int v : victims) {
          if (v == 0) continue;  // node 0 is the rejoin seed
          const Duration phase{rng.uniform_range(0, cycle.us - 1)};
          for (Duration t = start + phase; t < end; t = t + cycle) {
            emit.at(t, ActionKind::kCrash, {v});
            emit.at(t + f.period, ActionKind::kRestart, {v});
          }
        }
        break;
      case FaultKind::kPartition:
        emit.at(start, ActionKind::kPartitionAdd, victims);
        emit.at(end, ActionKind::kPartitionDel, victims);
        break;
      case FaultKind::kLinkLoss:
      case FaultKind::kLatency:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
        emit.at(start, ActionKind::kLinkFaultAdd, victims);
        emit.at(end, ActionKind::kLinkFaultDel, victims);
        break;
    }

    for (int v : victims) {
      if (std::find(plan.victims.begin(), plan.victims.end(), v) ==
          plan.victims.end()) {
        plan.victims.push_back(v);
      }
    }
    plan.entry_victims.push_back(std::move(victims));
  }

  std::stable_sort(
      plan.actions.begin(), plan.actions.end(),
      [](const Action& a, const Action& b) { return a.at < b.at; });
  return plan;
}

void PartitionClaims::apply(const Action& a) {
  const int group = a.entry + 1;
  for (int v : a.nodes) {
    std::vector<int>& claims = claims_[v];
    if (a.kind == ActionKind::kPartitionAdd) {
      claims.push_back(group);
    } else if (const auto it = std::find(claims.rbegin(), claims.rend(), group);
               it != claims.rend()) {
      claims.erase(std::next(it).base());  // the most recent matching claim
    }
  }
}

int PartitionClaims::group_of(int node) const {
  const auto it = claims_.find(node);
  return it == claims_.end() || it->second.empty() ? 0 : it->second.back();
}

}  // namespace lifeguard::fault
