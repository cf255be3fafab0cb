#include "obs/sampler.h"

#include <algorithm>

#include "sim/simulator.h"

namespace lifeguard::obs {

namespace {

/// Sum of one named counter across every node's registry.
double counter_sum(const sim::Simulator& sim, const std::string& name) {
  double total = 0;
  for (int i = 0; i < sim.size(); ++i) {
    total += static_cast<double>(sim.agent(i).metrics().counter_value(name));
  }
  return total;
}

}  // namespace

Sampler::Sampler(sim::Simulator& sim, Duration interval)
    : sim_(sim), interval_(interval) {}

void Sampler::start() {
  prev_at_ = sim_.now();
  prev_events_ = static_cast<double>(sim_.queue().executed());
  sim_.at(sim_.now() + interval_, [this] { tick(); });
}

void Sampler::emit(Metric m, double value) {
  sim_.note(check::TraceEventKind::kMetricSample, -1, static_cast<int>(m),
            value);
}

void Sampler::tick() {
  const TimePoint now = sim_.now();
  const double dt = (now - prev_at_).seconds();
  // Clamped delta-to-rate: cumulative counters only grow within one node
  // incarnation, but restart_node hands the slot a zeroed registry.
  auto rate = [dt](double cur, double& prev) {
    const double d = cur - prev;
    prev = cur;
    return (dt > 0 && d > 0) ? d / dt : 0.0;
  };

  // ---- membership views, health and queue depths (running nodes only) ----
  int views = 0;
  double active = 0, suspect = 0, dead = 0;
  double lhm_sum = 0, lhm_max = 0;
  double pending_sum = 0, pending_max = 0;
  for (int i = 0; i < sim_.size(); ++i) {
    const membership::Agent& a = sim_.agent(i);
    if (!a.running()) continue;
    ++views;
    active += static_cast<double>(a.active_members());
    suspect += static_cast<double>(a.suspect_count());
    dead += static_cast<double>(a.dead_count());
    const double lhm = a.health_score();
    lhm_sum += lhm;
    lhm_max = std::max(lhm_max, lhm);
    const double pending = static_cast<double>(a.pending_broadcast_count());
    pending_sum += pending;
    pending_max = std::max(pending_max, pending);
  }
  const double denom = views > 0 ? views : 1;

  // ---- probe RTT: per-interval mean over this window's new samples ----
  double rtt_count = 0, rtt_sum = 0;
  for (int i = 0; i < sim_.size(); ++i) {
    const auto& hists = sim_.agent(i).metrics().histograms();
    const auto it = hists.find("probe.rtt_us");
    if (it == hists.end()) continue;
    rtt_count += static_cast<double>(it->second.count());
    rtt_sum += it->second.sum();
  }
  const double d_count = rtt_count - prev_rtt_count_;
  const double d_sum = rtt_sum - prev_rtt_sum_;
  prev_rtt_count_ = rtt_count;
  prev_rtt_sum_ = rtt_sum;
  const double rtt_mean = d_count > 0 ? d_sum / d_count : 0.0;

  // ---- cluster-wide cumulative counters ----
  const double msgs = counter_sum(sim_, "net.msgs_sent");
  const double bytes = counter_sum(sim_, "net.bytes_sent");
  const double nacks = counter_sum(sim_, "probe.nack_received");
  const double fails = counter_sum(sim_, "probe.failed");
  double transmits = 0;
  for (int i = 0; i < sim_.size(); ++i) {
    transmits += static_cast<double>(sim_.agent(i).gossip_transmits_total());
  }

  // Emitted in catalog id order — the series (and the recorded trace) are
  // bit-stable for a (scenario, seed).
  emit(Metric::kMembersActive, active / denom);
  emit(Metric::kMembersSuspect, suspect / denom);
  emit(Metric::kMembersDead, dead / denom);
  emit(Metric::kLhmMean, lhm_sum / denom);
  emit(Metric::kLhmMax, lhm_max);
  emit(Metric::kProbeRttMeanUs, rtt_mean);
  emit(Metric::kProbeNackRate, rate(nacks, prev_nacks_));
  emit(Metric::kProbeFailRate, rate(fails, prev_fails_));
  emit(Metric::kNetMsgsRate, rate(msgs, prev_msgs_));
  emit(Metric::kNetMsgsTotal, msgs);
  emit(Metric::kNetBytesTotal, bytes);
  emit(Metric::kGossipPendingMean, pending_sum / denom);
  emit(Metric::kGossipPendingMax, pending_max);
  emit(Metric::kSimQueueDepth, static_cast<double>(sim_.queue().pending()));
  emit(Metric::kSimEventsRate,
       rate(static_cast<double>(sim_.queue().executed()), prev_events_));
  emit(Metric::kGossipTransmitsRate, rate(transmits, prev_transmits_));

  // Backend-generic detection metrics (ids 16..18) are emitted only for
  // non-swim backends: swim never populates the detect.* instruments, and
  // skipping the emits keeps swim series byte-identical to recordings made
  // before the membership seam existed.
  if (sim_.membership_base() != "swim") {
    emit(Metric::kHeartbeatSentTotal,
         counter_sum(sim_, "detect.heartbeat_sent"));
    emit(Metric::kHeartbeatMissedTotal,
         counter_sum(sim_, "detect.heartbeat_missed"));
    double hb_count = 0, hb_sum = 0;
    for (int i = 0; i < sim_.size(); ++i) {
      const auto& hists = sim_.agent(i).metrics().histograms();
      const auto it = hists.find("detect.coordinator_rtt_us");
      if (it == hists.end()) continue;
      hb_count += static_cast<double>(it->second.count());
      hb_sum += it->second.sum();
    }
    const double dh_count = hb_count - prev_hb_rtt_count_;
    const double dh_sum = hb_sum - prev_hb_rtt_sum_;
    prev_hb_rtt_count_ = hb_count;
    prev_hb_rtt_sum_ = hb_sum;
    emit(Metric::kCoordinatorRttMeanUs,
         dh_count > 0 ? dh_sum / dh_count : 0.0);
  }

  prev_at_ = now;
  sim_.at(now + interval_, [this] { tick(); });
}

void SeriesCollector::on_trace_event(const check::TraceEvent& e) {
  if (e.kind != check::TraceEventKind::kMetricSample) return;
  const auto metric = metric_from_id(e.peer);
  if (!metric) return;
  series_.push_back({e.at, *metric, e.node, e.value});
}

}  // namespace lifeguard::obs
