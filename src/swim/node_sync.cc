// Anti-entropy: push-pull full state sync over the reliable channel
// (memberlist extension, paper §III-B). Also the join path: a joining node
// push-pulls with a seed, and both sides merge.
//
// Merge rule of note: a remote *dead* entry is applied as a *suspicion*
// (memberlist's mergeRemoteState), so a falsely-declared node that receives
// the claim via sync still gets a refutation window instead of being
// instantly killed in the local view.
#include "swim/node.h"

namespace lifeguard::swim {

std::vector<proto::MemberSnapshot> Node::snapshot_state() const {
  std::vector<proto::MemberSnapshot> out;
  out.reserve(table_.size());
  for (const Member& m : table_.all()) {
    proto::MemberSnapshot s;
    s.name = m.name;
    s.addr = m.addr;
    s.incarnation = m.incarnation;
    s.state = static_cast<std::uint8_t>(m.state);
    out.push_back(std::move(s));
  }
  return out;
}

void Node::handle_push_pull(const proto::PushPullView& p) {
  obs_.sync_received().add();
  if (p.is_response) {
    // Only a response to the *join* exchange ends the retry loop. A periodic
    // sync response can come from a peer whose own view is still tiny (e.g.
    // the other member of a churn pair) and proves nothing about having
    // merged a seed's full state.
    if (p.join) {
      join_synced_ = true;
      cancel_timer(join_retry_timer_);
    }
  }
  if (!p.is_response) {
    proto::PushPull resp;
    resp.is_response = true;
    resp.join = p.join;  // echo, so the joiner can tell this answers a join
    resp.from = name_;
    resp.from_addr = addr_;
    resp.members = snapshot_state();
    send_message(p.from_addr, Channel::kReliable, resp);
  }
  merge_remote_state(p);
}

void Node::merge_remote_state(const proto::PushPullView& p) {
  for (const proto::MemberSnapshotView& s : p.members) {
    if (s.name.empty()) continue;
    const auto state = static_cast<MemberState>(s.state);
    switch (state) {
      case MemberState::kAlive:
        on_alive_msg(proto::AliveView{s.name, s.incarnation, s.addr});
        break;
      case MemberState::kSuspect:
      case MemberState::kDead:
        // Dead degrades to suspect on merge: gives the subject a refutation
        // window (see file comment). The originator is the LOCAL node, as in
        // memberlist's mergeState — successive syncs with different peers
        // must not masquerade as independent suspicions (that would collapse
        // LHA-Suspicion timeouts spuriously). Unknown members are ignored by
        // the suspect handler, matching memberlist.
        on_suspect_msg(proto::SuspectView{s.name, s.incarnation, name_});
        break;
      case MemberState::kLeft:
        on_dead_msg(proto::DeadView{s.name, s.incarnation, s.name});
        break;
    }
    if (!running_) return;
  }
}

}  // namespace lifeguard::swim
