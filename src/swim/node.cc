// Node lifecycle, outbound path and periodic schedules. The probe pipeline
// lives in node_probe.cc, the gossip state machine in node_handlers.cc and
// anti-entropy in node_sync.cc.
#include "swim/node.h"

#include <algorithm>
#include <utility>

namespace lifeguard::swim {

Node::Node(std::string name, Address addr, Config cfg, Runtime& rt)
    : name_(std::move(name)),
      addr_(addr),
      cfg_(cfg),
      rt_(rt),
      table_(name_, rt.names()),
      bcast_(cfg.retransmit_mult, rt.names()),
      health_(cfg.lhm_max, cfg.lha_probe),
      log_(name_, LogLevel::kOff),
      obs_(metrics_) {
  if (cfg_.buddy_system) {
    piggyback_ = std::make_unique<BuddyPiggyback>(
        bcast_, [this](std::string_view t) { return buddy_frame(t); });
  } else {
    piggyback_ = std::make_unique<DefaultPiggyback>(bcast_);
  }
}

Node::~Node() { stop(); }

void Node::start() {
  if (running_) return;
  running_ = true;
  Member self;
  self.name = name_;
  self.addr = addr_;
  self.incarnation = incarnation_;
  self.state = MemberState::kAlive;
  self.state_change = rt_.now();
  table_.add(std::move(self), rt_.rng());
  // Announce ourselves; a lone bootstrap node's broadcast simply expires.
  broadcast(name_, proto::AliveView{name_, incarnation_, addr_});
  schedule_ticks();
}

void Node::join(const std::vector<Address>& seeds) {
  join_seeds_.clear();
  for (const Address& seed : seeds) {
    if (seed == addr_) continue;
    join_seeds_.push_back(seed);
  }
  join_synced_ = false;
  send_join_requests();
  // A join through a partition can lose both request and response, and the
  // next periodic push-pull is a full interval away — too late to learn
  // quiet members inside any convergence window (fuzzer-found: a restarted
  // node whose seed was partitioned ended the run blind to a stable member).
  // Memberlist's Join reports failure and callers retry; model that here.
  cancel_timer(join_retry_timer_);
  if (cfg_.join_retry_interval > Duration{0} && !join_seeds_.empty()) {
    join_retry_timer_ =
        rt_.schedule(cfg_.join_retry_interval, [this] { join_retry_tick(); });
  }
}

void Node::send_join_requests() {
  for (const Address& seed : join_seeds_) {
    send_push_pull(seed, /*is_response=*/false, /*join=*/true);
  }
}

void Node::join_retry_tick() {
  join_retry_timer_ = kInvalidTimer;
  if (!running_ || join_synced_) return;
  send_join_requests();
  join_retry_timer_ =
      rt_.schedule(cfg_.join_retry_interval, [this] { join_retry_tick(); });
}

void Node::leave() {
  if (leaving_) return;
  leaving_ = true;
  Member* self = table_.find(name_);
  if (self != nullptr) {
    table_.set_state(*self, MemberState::kLeft, rt_.now());
  }
  // from == member encodes the graceful-leave intent (memberlist).
  broadcast(name_, proto::DeadView{name_, incarnation_, name_});
  obs_.leaves().add();
}

void Node::stop() {
  if (!running_) return;
  running_ = false;
  cancel_timer(probe_tick_timer_);
  cancel_timer(gossip_tick_timer_);
  cancel_timer(push_pull_timer_);
  cancel_timer(reconnect_timer_);
  cancel_timer(join_retry_timer_);
  cancel_timer(housekeeping_timer_);
  if (probe_) {
    cancel_timer(probe_->timeout_timer);
    cancel_timer(probe_->period_timer);
    probe_.reset();
  }
  for (auto& [_, relay] : relays_) {
    cancel_timer(relay.nack_timer);
    cancel_timer(relay.expire_timer);
  }
  relays_.clear();
  for (auto& [_, susp] : suspicions_) cancel_timer(susp.timer);
  suspicions_.clear();
}

void Node::schedule_ticks() {
  // Random initial phase desynchronizes the cluster's probe schedules, as
  // independently started agents would be.
  auto& rng = rt_.rng();
  const Duration probe_phase{
      static_cast<std::int64_t>(rng.uniform(
          static_cast<std::uint64_t>(cfg_.probe_interval.us)))};
  probe_tick_timer_ = rt_.schedule(probe_phase, [this] { probe_tick(); });

  const Duration gossip_phase{
      static_cast<std::int64_t>(rng.uniform(
          static_cast<std::uint64_t>(cfg_.gossip_interval.us)))};
  gossip_tick_timer_ = rt_.schedule(gossip_phase, [this] { gossip_tick(); });

  if (cfg_.push_pull_interval > Duration{0}) {
    const Duration pp_phase{
        static_cast<std::int64_t>(rng.uniform(
            static_cast<std::uint64_t>(cfg_.push_pull_interval.us)))};
    push_pull_timer_ = rt_.schedule(pp_phase, [this] { push_pull_tick(); });
  }
  if (cfg_.reconnect_interval > Duration{0}) {
    const Duration rc_phase{
        static_cast<std::int64_t>(rng.uniform(
            static_cast<std::uint64_t>(cfg_.reconnect_interval.us)))};
    reconnect_timer_ = rt_.schedule(rc_phase, [this] { reconnect_tick(); });
  }
  if (cfg_.dead_reclaim_after > Duration{0}) {
    housekeeping_timer_ = rt_.schedule(cfg_.dead_reclaim_after / 2,
                                       [this] { housekeeping_tick(); });
  }
}

void Node::gossip_tick() {
  if (!running_) return;
  gossip_tick_timer_ =
      rt_.schedule(cfg_.gossip_interval, [this] { gossip_tick(); });
  if (rt_.blocked()) {
    gossip_tick_missed_ = true;
    if (gossip_stalled_) return;  // goroutine already stuck in send
    gossip_stalled_ = true;
  }
  gossip_round();
}

void Node::gossip_round() {
  if (bcast_.empty()) return;

  // Gossip reaches active members plus the recently dead, so a falsely
  // declared node still hears of its death and can refute (memberlist's
  // gossip-to-the-dead).
  auto targets = table_.random_active_or_recently_dead(
      cfg_.gossip_fanout, rt_.rng(), rt_.now(), cfg_.gossip_to_dead);
  for (Member* t : targets) {
    if (bcast_.empty()) break;
    send_gossip(t->addr);
  }
}

void Node::push_pull_tick() {
  if (!running_) return;
  push_pull_timer_ =
      rt_.schedule(cfg_.push_pull_interval, [this] { push_pull_tick(); });
  if (rt_.blocked()) {
    // A push-pull is a TCP exchange: a connection attempt made while the
    // process is anomaly-blocked times out and is abandoned long before the
    // anomaly ends (unlike the fire-and-forget UDP sends, which leave the
    // kernel at unblock). No catch-up at unblock.
    return;
  }
  push_pull_round();
}

void Node::push_pull_round() {
  auto peers = table_.random_active(1, rt_.rng(), {});
  if (peers.empty()) return;
  send_push_pull(peers.front()->addr, /*is_response=*/false, /*join=*/false);
}

void Node::reconnect_tick() {
  if (!running_) return;
  reconnect_timer_ =
      rt_.schedule(cfg_.reconnect_interval, [this] { reconnect_tick(); });
  if (rt_.blocked()) return;
  // A member that failed (not left) may be on the far side of a healed
  // partition: offer it a full state exchange. If it is genuinely dead the
  // request simply goes unanswered.
  auto dead = table_.random_dead(1, rt_.rng());
  if (dead.empty()) return;
  send_push_pull(dead.front()->addr, /*is_response=*/false, /*join=*/false);
  obs_.reconnect_attempts().add();
}

void Node::housekeeping_tick() {
  if (!running_) return;
  housekeeping_timer_ = rt_.schedule(cfg_.dead_reclaim_after / 2,
                                     [this] { housekeeping_tick(); });
  const TimePoint now = rt_.now();
  std::vector<std::string> reclaim;
  for (const Member& m : table_.all()) {
    if (!is_active(m.state) &&
        now - m.state_change >= cfg_.dead_reclaim_after) {
      reclaim.push_back(m.name);
    }
  }
  for (const auto& name : reclaim) {
    table_.remove(name);
    obs_.reclaimed().add();
  }
}

void Node::cancel_timer(TimerId& id) {
  if (id != kInvalidTimer) {
    rt_.cancel(id);
    id = kInvalidTimer;
  }
}

void Node::on_unblocked() {
  probe_stalled_ = false;
  gossip_stalled_ = false;
  if (!running_) return;

  // The blocked goroutines resume, in the order the real system would
  // observe: the probe pipeline advances (indirect sends that were stuck,
  // then the expired-deadline evaluation — crucially BEFORE the inbound
  // backlog is drained, because the deadline timers beat the late acks into
  // the channel), then the tickers' pending ticks fire: one fresh probe and
  // one gossip round within the open window.
  if (probe_) {
    if (probe_->pending_indirect) {
      probe_->pending_indirect = false;
      if (!probe_->acked) launch_indirect();
    }
    if (probe_->pending_finish) {
      probe_->pending_finish = false;
      finish_probe();
    }
  }
  if (probe_tick_missed_) {
    probe_tick_missed_ = false;
    start_probe_once();
  }
  if (gossip_tick_missed_) {
    gossip_tick_missed_ = false;
    gossip_round();
  }
}

// ---- outbound ------------------------------------------------------------

void Node::send_control(const Address& to, Channel ch,
                        std::string_view ping_target) {
  proto::CompoundWriter datagram(rt_.acquire_buffer());
  const std::size_t base = frame_.size() + proto::kCompoundHeaderBytes +
                           proto::compound_frame_overhead(frame_.size());
  if (base < cfg_.max_packet_bytes) {
    piggyback_->select(datagram, cfg_.max_packet_bytes - base,
                       table_.num_active(), ping_target);
  }
  // Gossip first, control last: a buddy-carried suspect about the ping
  // target is then processed before the ping, so the ack can already carry
  // the refutation.
  datagram.add(frame_);
  auto bytes = std::move(datagram).take();
  count_sent(proto::msg_type_name(static_cast<proto::MsgType>(frame_[0])),
             bytes.size(), ch);
  rt_.send(to, std::move(bytes), ch);
  // A push-pull's frame holds n snapshots: keep at most a packet's worth.
  if (frame_.capacity() > cfg_.max_packet_bytes) frame_ = decltype(frame_)();
}

void Node::send_gossip(const Address& to) {
  if (cfg_.max_packet_bytes <= proto::kCompoundHeaderBytes) return;
  proto::CompoundWriter datagram(rt_.acquire_buffer());
  piggyback_->select(datagram,
                     cfg_.max_packet_bytes - proto::kCompoundHeaderBytes,
                     table_.num_active(), {});
  if (datagram.count() == 0) return;
  auto bytes = std::move(datagram).take();
  count_sent("gossip", bytes.size(), Channel::kUdp);
  rt_.send(to, std::move(bytes), Channel::kUdp);
}

void Node::count_sent(const char* type, std::size_t bytes, Channel ch) {
  obs_.count_sent(type, bytes, ch);
  obs_.gossip_pending().set(static_cast<double>(bcast_.pending()));
}

// ---- inbound dispatch ------------------------------------------------------

void Node::on_packet(const Address& from, std::span<const std::uint8_t> payload,
                     Channel channel) {
  if (!running_) return;
  obs_.count_received(payload.size());

  // Each frame is parsed in place and handed to its handler as a view into
  // `payload`, whose buffer the runtime reuses once this returns.
  proto::FrameWalk walk(payload);
  if (!walk.ok()) {
    obs_.malformed().add();
    return;
  }
  struct Dispatch {
    Node& n;
    const Address& from;
    Channel ch;
    void operator()(const proto::PingView& p) { n.handle_ping(from, p, ch); }
    void operator()(const proto::PingReqView& p) { n.handle_ping_req(p, ch); }
    void operator()(const proto::AckView& a) { n.handle_ack(a); }
    void operator()(const proto::NackView& x) { n.handle_nack(x); }
    void operator()(const proto::SuspectView& s) { n.on_suspect_msg(s); }
    void operator()(const proto::AliveView& a) { n.on_alive_msg(a); }
    void operator()(const proto::DeadView& d) { n.on_dead_msg(d); }
    void operator()(const proto::PushPullView& p) { n.handle_push_pull(p); }
  };
  for (std::span<const std::uint8_t> frame; walk.next(frame);) {
    BufReader r(frame);
    if (!proto::parse(r, Dispatch{*this, from, channel})) {
      obs_.malformed().add();
      continue;
    }
    if (!running_) break;  // a handler may have stopped the node
  }
}

std::optional<MemberState> Node::state_of(const std::string& member) const {
  const Member* m = table_.find(member);
  if (m == nullptr) return std::nullopt;
  return m->state;
}

std::vector<std::string> Node::active_view() const {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(table_.num_active()));
  if (const Member* self = table_.find(name_);
      self != nullptr && is_active(self->state)) {
    out.push_back(name_);
  }
  for (const Member& m : table_.active()) out.push_back(m.name);
  return out;
}

int Node::suspect_count() const {
  return static_cast<int>(std::ranges::count_if(
      table_.active(),
      [](const Member& m) { return m.state == MemberState::kSuspect; }));
}

int Node::dead_count() const { return static_cast<int>(table_.dead().size()); }

}  // namespace lifeguard::swim
