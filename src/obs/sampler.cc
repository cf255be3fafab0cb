#include "obs/sampler.h"

#include <algorithm>
#include <string>

#include "membership/agent.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace lifeguard::obs {

Sampler::Sampler(sim::Simulator& sim, Duration interval)
    : sim_(&sim),
      out_([&sim](const check::TraceEvent& e) {
        sim.note(e.kind, e.node, e.peer, e.value);
      }),
      interval_(interval),
      detection_tail_(sim.membership_base() != "swim") {}

Sampler::Sampler(const membership::Agent& agent, int node, Runtime& rt,
                 Duration interval, Out out)
    : agent_(&agent),
      rt_(&rt),
      node_(node),
      out_(std::move(out)),
      interval_(interval) {}

template <class Fn>
void Sampler::for_each_agent(Fn&& fn) const {
  if (agent_ != nullptr) {
    fn(*agent_);
    return;
  }
  for (int i = 0; i < sim_->size(); ++i) fn(sim_->agent(i));
}

TimePoint Sampler::now() const {
  return sim_ != nullptr ? sim_->now() : rt_->now();
}

void Sampler::schedule_tick() {
  if (sim_ != nullptr) {
    sim_->at(sim_->now() + interval_, [this] { tick(); });
  } else {
    rt_->schedule(interval_, [this] { tick(); });
  }
}

void Sampler::start() {
  prev_ = read();
  prev_at_ = now();
  schedule_tick();
}

void Sampler::emit(TimePoint at, Metric m, double value) {
  check::TraceEvent e;
  e.at = at;
  e.kind = check::TraceEventKind::kMetricSample;
  e.node = node_;
  e.peer = static_cast<int>(m);
  e.value = value;
  out_(e);
}

Sampler::Totals Sampler::read() const {
  const auto counter_total = [this](const std::string& name) {
    double total = 0;
    for_each_agent([&](const membership::Agent& a) {
      total += static_cast<double>(a.metrics().counter_value(name));
    });
    return total;
  };
  const auto histogram_total = [this](const char* name, double& count,
                                      double& sum) {
    for_each_agent([&](const membership::Agent& a) {
      const auto& hists = a.metrics().histograms();
      const auto it = hists.find(name);
      if (it == hists.end()) return;
      count += static_cast<double>(it->second.count());
      sum += it->second.sum();
    });
  };

  Totals t;
  t.msgs = counter_total("net.msgs_sent");
  t.bytes = counter_total("net.bytes_sent");
  t.nacks = counter_total("probe.nack_received");
  t.fails = counter_total("probe.failed");
  for_each_agent([&t](const membership::Agent& a) {
    t.transmits += static_cast<double>(a.gossip_transmits_total());
  });
  histogram_total("probe.rtt_us", t.rtt_count, t.rtt_sum);
  if (sim_ != nullptr) {
    t.events = static_cast<double>(sim_->queue().executed());
  }
  if (detection_tail_) {
    t.hb_sent = counter_total("detect.heartbeat_sent");
    t.hb_missed = counter_total("detect.heartbeat_missed");
    histogram_total("detect.coordinator_rtt_us", t.hb_rtt_count,
                    t.hb_rtt_sum);
  }
  return t;
}

void Sampler::tick() {
  const TimePoint at = now();
  const double dt = (at - prev_at_).seconds();
  const Totals cur = read();
  // Clamped delta-to-rate: cumulative counters only grow within one node
  // incarnation, but restart_node hands the slot a zeroed registry.
  const auto rate = [dt](double now_total, double prev_total) {
    const double d = now_total - prev_total;
    return (dt > 0 && d > 0) ? d / dt : 0.0;
  };
  // Mean of the samples a histogram gained this interval.
  const auto window_mean = [](double sum, double prev_sum, double count,
                              double prev_count) {
    const double d_count = count - prev_count;
    return d_count > 0 ? (sum - prev_sum) / d_count : 0.0;
  };

  // ---- membership views, health and queue depths (running agents only) --
  int views = 0;
  double active = 0, suspect = 0, dead = 0;
  double lhm_sum = 0, lhm_max = 0;
  double pending_sum = 0, pending_max = 0;
  for_each_agent([&](const membership::Agent& a) {
    if (!a.running()) return;
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
  });
  const double denom = views > 0 ? views : 1;

  // Emitted in catalog id order — the series (and the recorded trace) are
  // bit-stable for a (scenario, seed).
  emit(at, Metric::kMembersActive, active / denom);
  emit(at, Metric::kMembersSuspect, suspect / denom);
  emit(at, Metric::kMembersDead, dead / denom);
  emit(at, Metric::kLhmMean, lhm_sum / denom);
  emit(at, Metric::kLhmMax, lhm_max);
  emit(at, Metric::kProbeRttMeanUs,
       window_mean(cur.rtt_sum, prev_.rtt_sum, cur.rtt_count,
                   prev_.rtt_count));
  emit(at, Metric::kProbeNackRate, rate(cur.nacks, prev_.nacks));
  emit(at, Metric::kProbeFailRate, rate(cur.fails, prev_.fails));
  emit(at, Metric::kNetMsgsRate, rate(cur.msgs, prev_.msgs));
  emit(at, Metric::kNetMsgsTotal, cur.msgs);
  emit(at, Metric::kNetBytesTotal, cur.bytes);
  emit(at, Metric::kGossipPendingMean, pending_sum / denom);
  emit(at, Metric::kGossipPendingMax, pending_max);
  if (sim_ != nullptr) {
    emit(at, Metric::kSimQueueDepth,
         static_cast<double>(sim_->queue().pending()));
    emit(at, Metric::kSimEventsRate, rate(cur.events, prev_.events));
  }
  emit(at, Metric::kGossipTransmitsRate, rate(cur.transmits, prev_.transmits));
  if (detection_tail_) {
    emit(at, Metric::kHeartbeatSentTotal, cur.hb_sent);
    emit(at, Metric::kHeartbeatMissedTotal, cur.hb_missed);
    emit(at, Metric::kCoordinatorRttMeanUs,
         window_mean(cur.hb_rtt_sum, prev_.hb_rtt_sum, cur.hb_rtt_count,
                     prev_.hb_rtt_count));
  }

  prev_ = cur;
  prev_at_ = at;
  schedule_tick();
}

void SeriesCollector::on_trace_event(const check::TraceEvent& e) {
  if (e.kind != check::TraceEventKind::kMetricSample) return;
  const auto metric = metric_from_id(e.peer);
  if (!metric) return;
  series_.push_back({e.at, *metric, e.node, e.value});
}

}  // namespace lifeguard::obs
