#include "proto/wire.h"

namespace lifeguard::proto {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kPingReq:
      return "ping-req";
    case MsgType::kAck:
      return "ack";
    case MsgType::kNack:
      return "nack";
    case MsgType::kSuspect:
      return "suspect";
    case MsgType::kAlive:
      return "alive";
    case MsgType::kDead:
      return "dead";
    case MsgType::kPushPullReq:
      return "push-pull-req";
    case MsgType::kPushPullResp:
      return "push-pull-resp";
    case MsgType::kCompound:
      return "compound";
  }
  return "?";
}

void encode(const Message& m, BufWriter& w) {
  std::visit([&w](const auto& msg) { encode(msg, w); }, m);
}

std::vector<std::uint8_t> encode_datagram(const Message& m) {
  BufWriter w(64);
  encode(m, w);
  return std::move(w).take();
}

namespace {

// The copy behind decode(): each view into its owned form.

std::string own(std::string_view s) { return std::string(s); }

Ping owned(const PingView& p) {
  return {p.seq, own(p.target), own(p.source), p.source_addr};
}
PingReq owned(const PingReqView& p) {
  return {p.seq,          own(p.target),      p.target_addr, own(p.source),
          p.source_addr, p.probe_timeout_us, p.want_nack};
}
Ack owned(const AckView& a) { return {a.seq, own(a.from)}; }
Nack owned(const NackView& n) { return {n.seq, own(n.from)}; }
Suspect owned(const SuspectView& s) {
  return {own(s.member), s.incarnation, own(s.from)};
}
Alive owned(const AliveView& a) {
  return {own(a.member), a.incarnation, a.addr};
}
Dead owned(const DeadView& d) {
  return {own(d.member), d.incarnation, own(d.from)};
}
PushPull owned(const PushPullView& p) {
  PushPull out{p.is_response, p.join, own(p.from), p.from_addr, {}};
  out.members.reserve(p.members.size());
  for (const MemberSnapshotView& s : p.members) {
    out.members.push_back({own(s.name), s.addr, s.incarnation, s.state});
  }
  return out;
}

}  // namespace

std::optional<Message> decode(BufReader& r) {
  std::optional<Message> out;
  parse(r, [&out](const auto& view) { out.emplace(owned(view)); });
  return out;
}

FrameWalk::FrameWalk(std::span<const std::uint8_t> datagram) : r_(datagram) {
  if (datagram.empty()) return;
  if (static_cast<MsgType>(datagram[0]) != MsgType::kCompound) {
    left_ = 1;
    ok_ = true;
    return;
  }
  compound_ = true;
  (void)r_.u8();
  const std::uint16_t count = r_.u16();
  BufReader check = r_;
  for (std::uint16_t i = 0; i < count && check.ok(); ++i) {
    check.raw(check.varint());
  }
  ok_ = check.ok();
  if (ok_) left_ = count;
}

CompoundWriter::CompoundWriter(std::vector<std::uint8_t> reuse)
    : w_(std::move(reuse)) {
  w_.u8(static_cast<std::uint8_t>(MsgType::kCompound));
  w_.u16(0);  // frame count, written by wrapped() and take()
}

void CompoundWriter::add(std::span<const std::uint8_t> frame) {
  w_.varint(frame.size());
  if (count_ == 0) first_frame_ = w_.size();
  w_.raw(frame);
  ++count_;
}

std::span<const std::uint8_t> CompoundWriter::wrapped() {
  w_.patch_u16(1, static_cast<std::uint16_t>(count_));
  return w_.bytes();
}

std::vector<std::uint8_t> CompoundWriter::take() && {
  w_.patch_u16(1, static_cast<std::uint16_t>(count_));
  std::vector<std::uint8_t> out = std::move(w_).take();
  if (count_ == 1) {
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(first_frame_));
  }
  return out;
}

std::vector<std::uint8_t> pack_compound(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  CompoundWriter w;
  for (const auto& f : frames) w.add(f);
  return std::move(w).take();
}

bool unpack_compound(std::span<const std::uint8_t> datagram,
                     std::vector<std::span<const std::uint8_t>>& frames_out) {
  frames_out.clear();
  FrameWalk walk(datagram);
  for (std::span<const std::uint8_t> frame; walk.next(frame);) {
    frames_out.push_back(frame);
  }
  return walk.ok();
}

std::size_t compound_frame_overhead(std::size_t frame_size) {
  // varint length prefix
  std::size_t n = 1;
  while (frame_size >= 0x80) {
    frame_size >>= 7;
    ++n;
  }
  return n;
}

}  // namespace lifeguard::proto
