#include "membership/central.h"

#include <utility>

#include "common/bytes.h"

namespace lifeguard::membership {

namespace {

enum MsgTag : std::uint8_t {
  kJoinTag = 1,
  kHeartbeatTag = 2,
  kAckTag = 3,
  kViewTag = 4,
};

constexpr std::uint8_t kStatusAlive = 0;
constexpr std::uint8_t kStatusFailed = 1;

}  // namespace

CentralAgent::CentralAgent(const AgentParams& params, Runtime& rt)
    : name_(params.name),
      addr_(params.address),
      index_(static_cast<std::uint32_t>(params.index)),
      cluster_size_(params.cluster_size),
      heartbeat_interval_(params.config.probe_interval),
      miss_threshold_(params.spec.miss_threshold),
      plant_refail_(params.spec.plant == "refail"),
      rt_(rt),
      det_(metrics_) {}

CentralAgent::~CentralAgent() { stop(); }

std::string CentralAgent::member_name(std::uint32_t index) {
  return "node-" + std::to_string(index);
}

void CentralAgent::start() {
  if (running_) return;
  running_ = true;
  table_[index_] = Entry{0, true, rt_.now()};
  if (is_coordinator()) coordinator_start();
}

void CentralAgent::join(const std::vector<Address>& seeds) {
  if (!running_ || is_coordinator() || seeds.empty()) return;
  coordinator_addr_ = seeds.front();
  BufWriter w(rt_.acquire_buffer());
  w.u8(kJoinTag);
  w.u32(index_);
  send_bytes(coordinator_addr_, std::move(w).take(), "join");
  if (heartbeat_timer_ == kInvalidTimer) {
    heartbeat_timer_ =
        rt_.schedule(heartbeat_interval_, [this] { heartbeat_tick(); });
  }
}

void CentralAgent::leave() {
  // No graceful-leave handshake: a departing member simply stops
  // heartbeating and the coordinator detects it like a crash. This keeps the
  // backend an honest baseline — plain heartbeat systems pay detection
  // latency even for voluntary departures.
}

void CentralAgent::stop() {
  running_ = false;
  rt_.cancel(check_timer_);
  check_timer_ = kInvalidTimer;
  rt_.cancel(heartbeat_timer_);
  heartbeat_timer_ = kInvalidTimer;
  ack_outstanding_ = false;
  consecutive_misses_ = 0;
}

void CentralAgent::publish(swim::EventType type, std::uint32_t member_index,
                           std::uint64_t incarnation, bool originated) {
  // No events about self, and none when nothing observes this agent.
  if (member_index == index_ || observer_ == nullptr) return;
  swim::MemberEvent e;
  e.at = rt_.now();
  e.type = type;
  e.member = member_name(member_index);
  // Every transition in this protocol is decided at the coordinator except a
  // member's own coordinator-failure verdict.
  e.origin = originated ? name_ : member_name(0);
  e.incarnation = incarnation;
  e.originated = originated;
  observer_->on_member_event(e);
}

void CentralAgent::send_bytes(const Address& to,
                              std::vector<std::uint8_t> bytes,
                              const char* type) {
  det_.count_sent(type, bytes.size(), Channel::kUdp);
  rt_.send(to, std::move(bytes), Channel::kUdp);
}

// ---- coordinator side --------------------------------------------------

void CentralAgent::coordinator_start() {
  check_timer_ =
      rt_.schedule(heartbeat_interval_, [this] { check_tick(); });
}

bool CentralAgent::admit(std::uint32_t index, const Address& from) {
  auto [it, inserted] = table_.try_emplace(index);
  Entry& e = it->second;
  e.last_heartbeat = rt_.now();
  e.addr = from;
  if (inserted) {
    publish(swim::EventType::kJoin, index, e.incarnation, true);
    return true;
  }
  if (!e.alive) {
    e.alive = true;
    ++e.incarnation;
    publish(swim::EventType::kJoin, index, e.incarnation, true);
    return true;
  }
  return false;
}

void CentralAgent::check_tick() {
  const Duration deadline = heartbeat_interval_ * miss_threshold_;
  const TimePoint now = rt_.now();
  for (auto& [index, e] : table_) {
    // Planted defect (central:plant=refail): skip the already-failed guard,
    // so a member whose heartbeats stopped is re-declared failed on every
    // tick — the kFailed -> kFailed re-announcement the legal-transitions
    // invariant rejects.
    if (index == index_ || (!e.alive && !plant_refail_)) continue;
    if (now - e.last_heartbeat > deadline) {
      e.alive = false;
      det_.heartbeat_missed().add();
      publish(swim::EventType::kFailed, index, e.incarnation, true);
    }
  }
  // Push the view every tick, changed or not: lost view datagrams heal by
  // anti-entropy, the same role push-pull plays for swim.
  push_views();
  check_timer_ =
      rt_.schedule(heartbeat_interval_, [this] { check_tick(); });
}

std::vector<std::uint8_t> CentralAgent::encode_view() {
  BufWriter w(rt_.acquire_buffer());
  w.u8(kViewTag);
  w.u32(static_cast<std::uint32_t>(table_.size()));
  for (const auto& [index, e] : table_) {
    w.u32(index);
    w.u8(e.alive ? kStatusAlive : kStatusFailed);
    w.u64(e.incarnation);
  }
  return std::move(w).take();
}

void CentralAgent::push_views() {
  const std::vector<std::uint8_t> view = encode_view();
  for (const auto& [index, e] : table_) {
    if (index == index_ || !e.alive || e.addr.is_unset()) continue;
    send_bytes(e.addr, view, "view");
  }
}

// ---- member side -------------------------------------------------------

void CentralAgent::heartbeat_tick() {
  if (ack_outstanding_) {
    det_.heartbeat_missed().add();
    ++consecutive_misses_;
    auto coord = table_.find(0);
    if (consecutive_misses_ >= miss_threshold_ && coord != table_.end() &&
        coord->second.alive) {
      coord->second.alive = false;
      publish(swim::EventType::kFailed, 0, coord->second.incarnation, true);
    }
  }
  pending_seq_ = next_seq_++;
  pending_sent_ = rt_.now();
  ack_outstanding_ = true;
  det_.heartbeat_sent().add();
  BufWriter w(rt_.acquire_buffer());
  w.u8(kHeartbeatTag);
  w.u32(index_);
  w.u32(pending_seq_);
  send_bytes(coordinator_addr_, std::move(w).take(), "heartbeat");
  heartbeat_timer_ =
      rt_.schedule(heartbeat_interval_, [this] { heartbeat_tick(); });
}

void CentralAgent::coordinator_seen_alive() {
  consecutive_misses_ = 0;
  auto coord = table_.find(0);
  if (coord != table_.end() && !coord->second.alive) {
    coord->second.alive = true;
    publish(swim::EventType::kAlive, 0, coord->second.incarnation, true);
  }
}

void CentralAgent::handle_ack(std::uint32_t seq) {
  if (ack_outstanding_ && seq == pending_seq_) {
    ack_outstanding_ = false;
    det_.coordinator_rtt_us().record(
        static_cast<double>((rt_.now() - pending_sent_).us));
  }
  coordinator_seen_alive();
}

void CentralAgent::handle_view(BufReader& r) {
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    const std::uint32_t index = r.u32();
    const bool alive = r.u8() == kStatusAlive;
    const std::uint64_t incarnation = r.u64();
    if (!r.ok() || index == index_) continue;
    auto [it, inserted] = table_.try_emplace(index);
    Entry& e = it->second;
    if (inserted) {
      e.alive = alive;
      e.incarnation = incarnation;
      // A pair's event stream must open with a join; a member first seen
      // already-failed gets no events until it rejoins.
      if (alive) publish(swim::EventType::kJoin, index, incarnation, false);
      continue;
    }
    if (alive && !e.alive) {
      publish(swim::EventType::kJoin, index, incarnation, false);
      if (index == 0) consecutive_misses_ = 0;
    } else if (!alive && e.alive) {
      publish(swim::EventType::kFailed, index, incarnation, false);
    }
    e.alive = alive;
    e.incarnation = incarnation;
  }
  // A view reaching us proves the coordinator is up even if acks got lost.
  coordinator_seen_alive();
}

// ---- dispatch ----------------------------------------------------------

void CentralAgent::on_packet(const Address& from,
                             std::span<const std::uint8_t> payload,
                             Channel /*channel*/) {
  if (!running_) return;
  det_.count_received(payload.size());
  BufReader r(payload);
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kJoinTag: {
      const std::uint32_t sender = r.u32();
      if (!r.ok() || !is_coordinator()) break;
      if (admit(sender, from)) push_views();
      return;
    }
    case kHeartbeatTag: {
      const std::uint32_t sender = r.u32();
      const std::uint32_t seq = r.u32();
      if (!r.ok() || !is_coordinator()) break;
      if (admit(sender, from)) push_views();
      BufWriter w(rt_.acquire_buffer());
      w.u8(kAckTag);
      w.u32(seq);
      send_bytes(from, std::move(w).take(), "heartbeat-ack");
      return;
    }
    case kAckTag: {
      const std::uint32_t seq = r.u32();
      if (!r.ok() || is_coordinator()) break;
      handle_ack(seq);
      return;
    }
    case kViewTag: {
      if (is_coordinator()) break;
      handle_view(r);
      if (r.ok()) return;
      break;
    }
    default:
      break;
  }
  det_.malformed().add();
}

// ---- views -------------------------------------------------------------

int CentralAgent::active_members() const {
  int n = 0;
  for (const auto& [index, e] : table_) n += e.alive ? 1 : 0;
  return n;
}

std::vector<std::string> CentralAgent::active_view() const {
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [index, e] : table_) {
    if (e.alive) out.push_back(member_name(index));
  }
  return out;
}

int CentralAgent::dead_count() const {
  int n = 0;
  for (const auto& [index, e] : table_) n += e.alive ? 0 : 1;
  return n;
}

}  // namespace lifeguard::membership
