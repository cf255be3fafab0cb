// The membership state machine: suspect / alive / dead precedence rules
// (SWIM §4.2 semantics as implemented by memberlist), suspicion lifecycle
// with LHA-Suspicion's dynamic timeout, and refutation.
#include "swim/node.h"

namespace lifeguard::swim {

using check::TraceEventKind;

void Node::emit(TraceEventKind kind, const Member& m,
                std::string_view origin, bool originated) {
  report({.kind = kind,
          .member = m.name,
          .origin = origin,
          .incarnation = m.incarnation,
          .originated = originated});
}

void Node::on_alive_msg(const proto::AliveView& a) {
  if (a.member == name_) {
    // Only we may speak for ourselves with a higher incarnation; competing
    // alive claims about self are dropped (they can only equal ours).
    return;
  }
  Member* m = table_.find(a.member);
  if (m == nullptr) {
    Member nm;
    nm.name = std::string(a.member);
    nm.addr = a.addr;
    nm.incarnation = a.incarnation;
    nm.state = MemberState::kAlive;
    nm.state_change = rt_.now();
    const Member& stored = table_.add(std::move(nm), rt_.rng());
    emit(TraceEventKind::kJoin, stored, a.member, false);
    broadcast(a.member, a);  // keep disseminating the join
    obs_.join_learned().add();
    return;
  }
  // An alive message refutes suspect/dead only with a strictly higher
  // incarnation (SWIM §4.2); equal-incarnation alive carries no news for an
  // already-alive member either.
  if (a.incarnation <= m->incarnation) return;

  const MemberState prev = m->state;
  m->incarnation = a.incarnation;
  m->addr = a.addr;
  if (prev != MemberState::kAlive) {
    table_.set_state(*m, MemberState::kAlive, rt_.now());
    cancel_suspicion(m->name);
    emit(TraceEventKind::kAlive, *m, a.member, false);
    (prev == MemberState::kSuspect ? obs_.refuted() : obs_.resurrected())
        .add();
  }
  broadcast(a.member, a);  // refutation must keep spreading
}

void Node::on_suspect_msg(const proto::SuspectView& s) {
  if (s.member == name_) {
    // Someone suspects us: refute with a higher incarnation. Needing to do
    // so is evidence of our own slowness (paper: LHM +1).
    Member* self = table_.find(name_);
    if (self != nullptr && s.incarnation >= incarnation_ && !leaving_) {
      refute(s.incarnation);
    }
    return;
  }
  Member* m = table_.find(s.member);
  if (m == nullptr) return;                    // unknown member
  if (s.incarnation < m->incarnation) return;  // stale
  if (m->state == MemberState::kDead || m->state == MemberState::kLeft) return;

  if (m->state == MemberState::kSuspect) {
    auto it = suspicions_.find(s.member);
    if (it == suspicions_.end()) return;  // shutting down
    Suspicion& susp = it->second;
    if (s.incarnation > m->incarnation) {
      m->incarnation = s.incarnation;
      susp.set_incarnation(s.incarnation);
    }
    // Independent confirmation (LHA-Suspicion §IV-B): an unseen originator
    // shrinks the timeout and is re-gossiped (first K only) so other nodes'
    // timeouts shrink too.
    if (cfg_.lha_suspicion && susp.confirm(s.from)) {
      obs_.suspicion_confirmed().add();
      broadcast(s.member, s);
      arm_suspicion_timer(susp);
    }
    return;
  }

  // Alive -> Suspect transition.
  start_suspicion(*m, s.incarnation, s.from);
}

void Node::start_suspicion(Member& m, std::uint64_t incarnation,
                           std::string_view from) {
  m.incarnation = incarnation;
  table_.set_state(m, MemberState::kSuspect, rt_.now());

  const int n = table_.num_active();
  const Duration min_t =
      suspicion_min(cfg_.suspicion_alpha, n, cfg_.probe_interval);
  // β stretches the starting timeout only under LHA-Suspicion; the SWIM
  // baseline runs a fixed timeout (β treated as 1, K as 0).
  const Duration max_t =
      cfg_.lha_suspicion ? min_t.scaled(cfg_.suspicion_beta) : min_t;
  const int k = cfg_.lha_suspicion ? cfg_.suspicion_k : 0;

  auto [it, inserted] = suspicions_.emplace(
      m.name,
      Suspicion(m.name, incarnation, std::string(from), min_t, max_t, k,
                rt_.now()));
  arm_suspicion_timer(it->second);

  emit(TraceEventKind::kSuspect, m, from, from == name_);
  obs_.suspicion_started().add();
  // SWIM: a member that suspects (or adopts a suspicion) gossips it.
  broadcast(m.name, proto::SuspectView{m.name, incarnation, from});
}

void Node::arm_suspicion_timer(Suspicion& susp) {
  cancel_timer(susp.timer);
  Duration remaining = susp.remaining_at(rt_.now());
  if (remaining < Duration{0}) remaining = Duration{0};
  const std::string member = susp.member();
  susp.timer =
      rt_.schedule(remaining, [this, member] { on_suspicion_timeout(member); });
}

void Node::on_suspicion_timeout(const std::string& member) {
  auto it = suspicions_.find(member);
  if (it == suspicions_.end()) return;
  const std::uint64_t inc = it->second.incarnation();
  obs_.suspicion_confirmations_at_death().record(it->second.confirmations());
  obs_.suspicion_lifetime_s().record(
      (rt_.now() - it->second.start()).seconds());
  suspicions_.erase(it);

  Member* m = table_.find(member);
  if (m == nullptr || m->state != MemberState::kSuspect) return;

  // Failure event: this node originates the dead declaration (this is what
  // the paper's FP / FP- metrics count when `member` is in fact healthy).
  table_.set_state(*m, MemberState::kDead, rt_.now());
  emit(TraceEventKind::kFailed, *m, name_, true);
  obs_.dead_declared().add();
  broadcast(member, proto::DeadView{member, inc, name_});
}

void Node::cancel_suspicion(std::string_view member) {
  auto it = suspicions_.find(member);
  if (it == suspicions_.end()) return;
  cancel_timer(it->second.timer);
  suspicions_.erase(it);
}

void Node::on_dead_msg(const proto::DeadView& d) {
  if (d.member == name_) {
    // We are reported dead. Unless we are deliberately leaving, refute.
    if (!leaving_ && d.incarnation >= incarnation_) {
      refute(d.incarnation);
      obs_.refuted_death().add();
    }
    return;
  }
  Member* m = table_.find(d.member);
  if (m == nullptr) return;
  if (d.incarnation < m->incarnation) return;  // stale
  if (m->state == MemberState::kDead || m->state == MemberState::kLeft) return;

  cancel_suspicion(d.member);
  m->incarnation = d.incarnation;
  const bool left = d.from == d.member;  // graceful leave
  table_.set_state(*m, left ? MemberState::kLeft : MemberState::kDead,
                   rt_.now());
  emit(left ? TraceEventKind::kLeft : TraceEventKind::kFailed, *m, d.from,
       false);
  (left ? obs_.left_learned() : obs_.dead_learned()).add();
  broadcast(d.member, d);
}

void Node::refute(std::uint64_t suspected_incarnation) {
  // Planted defect (swim:plant=drop-refute): silently drop the refutation.
  // Without the incarnation bump and Alive broadcast, the suspicion runs to
  // a death verdict and the dead verdict wins every precedence comparison
  // afterwards — the node stays dead in every other view while it is in
  // fact healthy.
  if (plant_drop_refute_) return;
  incarnation_ = std::max(incarnation_, suspected_incarnation) + 1;
  Member* self = table_.find(name_);
  if (self != nullptr) self->incarnation = incarnation_;
  // Having to refute means we missed (or were late to) pings — evidence of
  // local slowness (paper §IV-A: refute => LHM +1).
  health_.refuted_suspicion();
  obs_.refutations().add();
  broadcast(name_, proto::AliveView{name_, incarnation_, addr_});
}

std::optional<std::vector<std::uint8_t>> Node::buddy_frame(
    std::string_view target) {
  const Member* m = table_.find(target);
  if (m == nullptr || m->state != MemberState::kSuspect) return std::nullopt;
  const auto it = suspicions_.find(target);
  const std::uint64_t inc =
      it != suspicions_.end() ? it->second.incarnation() : m->incarnation;
  BufWriter w(48);
  proto::encode(proto::SuspectView{target, inc, name_}, w);
  obs_.buddy_prioritized().add();
  return std::move(w).take();
}

}  // namespace lifeguard::swim
