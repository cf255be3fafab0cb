// The failure-detector probe pipeline (paper §III-A, §IV-A).
//
// Each protocol period: pick the next round-robin target, direct-probe it
// over UDP; on timeout, enlist k relays via ping-req (plus memberlist's
// reliable-channel fallback direct probe); at the period's end, either credit
// local health (ack seen) or debit it (failed probe, missed nacks) and raise
// a suspicion. With LHA-Probe enabled both the period and the timeout scale
// by (LHM + 1).
#include "swim/node.h"

namespace lifeguard::swim {

using check::TraceEventKind;

Duration Node::scaled_probe_interval() const {
  return health_.scale(cfg_.probe_interval);
}

Duration Node::scaled_probe_timeout() const {
  return health_.scale(cfg_.probe_timeout);
}

void Node::probe_tick() {
  if (!running_) return;
  // The next tick is scheduled at the *scaled* interval:
  // ProbeInterval = BaseProbeInterval · (LHM + 1)     (paper §IV-A)
  probe_tick_timer_ =
      rt_.schedule(scaled_probe_interval(), [this] { probe_tick(); });

  if (rt_.blocked()) {
    probe_tick_missed_ = true;  // one pending tick survives the anomaly
    if (probe_stalled_) return;  // probe loop already stuck in send()
    // First tick while blocked proceeds: in the real system the loop arms
    // its timeout and then blocks inside send(), so exactly one probe is in
    // flight for the whole anomaly. Our queued send models the late packet.
    probe_stalled_ = true;
  }
  start_probe_once();
}

void Node::start_probe_once() {
  if (probe_) return;  // previous (stretched/deferred) probe still in flight
  Member* target = table_.next_probe_target(rt_.rng());
  if (target == nullptr) return;
  begin_probe(*target);
}

void Node::begin_probe(Member& target) {
  ProbeState ps;
  ps.seq = next_seq_++;
  ps.target = target.name;
  ps.started = rt_.now();
  probe_ = ps;
  obs_.probe_started().add();
  report({.kind = TraceEventKind::kProbeStart, .member = target.name});

  send_message(target.addr, Channel::kUdp,
               proto::PingView{probe_->seq, target.name, name_, addr_},
               target.name);

  probe_->timeout_timer = rt_.schedule(scaled_probe_timeout(),
                                       [this] { probe_timeout_expired(); });
  // Finish strictly before the next tick fires (same scaled length).
  probe_->period_timer = rt_.schedule(scaled_probe_interval() - usec(1),
                                      [this] { finish_probe(); });
}

void Node::probe_timeout_expired() {
  if (!probe_) return;
  probe_->timeout_timer = kInvalidTimer;
  if (probe_->acked || probe_->indirect_started) return;
  // Anomaly-blocked: the probing goroutine is stuck in send(), so the
  // indirect stage cannot be launched now; it launches when the anomaly
  // ends (on_unblocked), exactly as the resumed goroutine would.
  if (rt_.blocked()) {
    probe_->pending_indirect = true;
    return;
  }
  launch_indirect();
}

void Node::launch_indirect() {
  if (!probe_ || probe_->indirect_started) return;
  probe_->indirect_started = true;
  obs_.probe_indirect().add();
  report({.kind = TraceEventKind::kProbeIndirect, .member = probe_->target});

  Member* target = table_.find(probe_->target);
  if (target == nullptr) return;

  const bool want_nack = cfg_.lha_probe && cfg_.nack_enabled;
  auto relays = table_.random_active(cfg_.indirect_checks, rt_.rng(),
                                     {probe_->target});
  probe_->nacks_expected = want_nack ? static_cast<int>(relays.size()) : 0;
  const proto::PingReqView req{.seq = probe_->seq,
                               .target = probe_->target,
                               .target_addr = target->addr,
                               .source = name_,
                               .source_addr = addr_,
                               .probe_timeout_us = scaled_probe_timeout().us,
                               .want_nack = want_nack};
  for (Member* relay : relays) send_message(relay->addr, Channel::kUdp, req);

  // memberlist extension: in parallel with the indirect probes, retry the
  // direct probe over the reliable channel (catches UDP-only pathologies).
  if (cfg_.reliable_fallback_probe) {
    send_message(target->addr, Channel::kReliable,
                 proto::PingView{probe_->seq, probe_->target, name_, addr_},
                 probe_->target);
  }
}

void Node::finish_probe() {
  if (!probe_) return;
  probe_->period_timer = kInvalidTimer;
  if (rt_.blocked()) {
    // The probing goroutine is stuck in send(); it observes the expired
    // deadline the moment the anomaly ends and evaluates the outcome then —
    // before the inbound backlog (with any late acks) is processed, exactly
    // as memberlist's probeNode resumes ahead of the UDP reader.
    probe_->pending_finish = true;
    return;
  }
  cancel_timer(probe_->timeout_timer);

  const std::string target = probe_->target;
  const int missed_nacks =
      std::max(0, probe_->nacks_expected - probe_->nacks_received);
  probe_.reset();

  // Only unacked probes reach the period deadline (acked ones complete and
  // reset in handle_ack): this is the failure path.
  obs_.probe_failed().add();
  health_.probe_failed();
  for (int i = 0; i < missed_nacks; ++i) {
    health_.missed_nack();
    obs_.probe_missed_nack().add();
  }
  report({.kind = TraceEventKind::kProbeFail, .member = target});

  Member* m = table_.find(target);
  if (m == nullptr || !is_active(m->state)) return;
  // Locally originated suspicion: feed it through the same path gossip
  // takes, with ourselves as the independent originator.
  on_suspect_msg(proto::SuspectView{target, m->incarnation, name_});
}

// ---- probe message handlers -------------------------------------------------

void Node::handle_ping(const Address& /*from*/, const proto::PingView& p,
                       Channel ch) {
  if (p.target != name_) {
    // Stale addressing (e.g. a reused address); memberlist drops these.
    obs_.probe_misrouted_ping().add();
    return;
  }
  send_message(p.source_addr, ch, proto::AckView{p.seq, name_});
}

void Node::handle_ping_req(const proto::PingReqView& p, Channel ch) {
  // Serve as relay: probe the target with our own sequence number and map it
  // back to the origin's.
  const std::uint32_t relay_seq = next_seq_++;
  RelayState relay;
  relay.origin_seq = p.seq;
  relay.origin_addr = p.source_addr;
  relay.channel = ch;
  relay.nack_wanted = p.want_nack;

  send_message(p.target_addr, Channel::kUdp,
               proto::PingView{relay_seq, p.target, name_, addr_}, p.target);
  obs_.probe_relayed().add();

  const Duration timeout{std::max<std::int64_t>(p.probe_timeout_us, 1000)};
  if (p.want_nack) {
    // Lifeguard nack: report our own timeliness to the origin even if the
    // target stays silent, at 80% of the origin's probe timeout (§IV-A).
    relay.nack_timer =
        rt_.schedule(timeout.scaled(cfg_.nack_fraction), [this, relay_seq] {
          auto it = relays_.find(relay_seq);
          if (it == relays_.end() || it->second.acked) return;
          it->second.nack_timer = kInvalidTimer;
          send_message(it->second.origin_addr, it->second.channel,
                       proto::NackView{it->second.origin_seq, name_});
          obs_.probe_nack_sent().add();
        });
  }
  // Keep the mapping around long enough for a late ack to still be
  // forwarded (it counts as success at the origin if within its period).
  relay.expire_timer = rt_.schedule(timeout * 4, [this, relay_seq] {
    auto it = relays_.find(relay_seq);
    if (it == relays_.end()) return;
    cancel_timer(it->second.nack_timer);
    relays_.erase(it);
  });
  relays_.emplace(relay_seq, relay);
}

void Node::handle_ack(const proto::AckView& a) {
  if (probe_ && probe_->seq == a.seq) {
    // Success: the probe completes immediately (memberlist's probeNode
    // returns on the first ack), freeing the loop for the next tick.
    // A timely ack means the local detector is keeping up (paper: −1).
    probe_->acked = true;
    health_.probe_success();
    obs_.probe_acked().add();
    obs_.probe_success().add();
    const Duration rtt = rt_.now() - probe_->started;
    obs_.probe_rtt_us().record(static_cast<double>(rtt.us));
    const std::string target = probe_->target;
    cancel_timer(probe_->timeout_timer);
    cancel_timer(probe_->period_timer);
    probe_.reset();
    report({.kind = TraceEventKind::kProbeAck,
            .member = target,
            .value = static_cast<double>(rtt.us)});
    return;
  }
  // Ack from a target we probed on someone's behalf: forward to the origin.
  auto it = relays_.find(a.seq);
  if (it == relays_.end()) {
    obs_.probe_stale_ack().add();
    return;
  }
  RelayState& relay = it->second;
  if (!relay.acked) {
    relay.acked = true;
    send_message(relay.origin_addr, relay.channel,
                 proto::AckView{relay.origin_seq, a.from});
    obs_.probe_ack_forwarded().add();
  }
}

void Node::handle_nack(const proto::NackView& n) {
  if (probe_ && probe_->seq == n.seq) {
    ++probe_->nacks_received;
    obs_.probe_nack_received().add();
    report({.kind = TraceEventKind::kProbeNack, .member = n.from});
  }
}

}  // namespace lifeguard::swim
