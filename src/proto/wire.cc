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

MsgType message_type(const Message& m) {
  struct Visitor {
    MsgType operator()(const Ping&) const { return MsgType::kPing; }
    MsgType operator()(const PingReq&) const { return MsgType::kPingReq; }
    MsgType operator()(const Ack&) const { return MsgType::kAck; }
    MsgType operator()(const Nack&) const { return MsgType::kNack; }
    MsgType operator()(const Suspect&) const { return MsgType::kSuspect; }
    MsgType operator()(const Alive&) const { return MsgType::kAlive; }
    MsgType operator()(const Dead&) const { return MsgType::kDead; }
    MsgType operator()(const PushPull& p) const {
      return p.is_response ? MsgType::kPushPullResp : MsgType::kPushPullReq;
    }
  };
  return std::visit(Visitor{}, m);
}

namespace {

void write_addr(BufWriter& w, const Address& a) {
  w.u32(a.ip);
  w.u16(a.port);
}

Address read_addr(BufReader& r) {
  Address a;
  a.ip = r.u32();
  a.port = r.u16();
  return a;
}

}  // namespace

void encode(const Message& m, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(message_type(m)));
  struct Visitor {
    BufWriter& w;
    void operator()(const Ping& p) const {
      w.u32(p.seq);
      w.str(p.target);
      w.str(p.source);
      write_addr(w, p.source_addr);
    }
    void operator()(const PingReq& p) const {
      w.u32(p.seq);
      w.str(p.target);
      write_addr(w, p.target_addr);
      w.str(p.source);
      write_addr(w, p.source_addr);
      w.u64(static_cast<std::uint64_t>(p.probe_timeout_us));
      w.u8(p.want_nack ? 1 : 0);
    }
    void operator()(const Ack& a) const {
      w.u32(a.seq);
      w.str(a.from);
    }
    void operator()(const Nack& n) const {
      w.u32(n.seq);
      w.str(n.from);
    }
    void operator()(const Suspect& s) const {
      w.str(s.member);
      w.u64(s.incarnation);
      w.str(s.from);
    }
    void operator()(const Alive& a) const {
      w.str(a.member);
      w.u64(a.incarnation);
      write_addr(w, a.addr);
    }
    void operator()(const Dead& d) const {
      w.str(d.member);
      w.u64(d.incarnation);
      w.str(d.from);
    }
    void operator()(const PushPull& p) const {
      w.u8(p.join ? 1 : 0);
      w.str(p.from);
      write_addr(w, p.from_addr);
      w.varint(p.members.size());
      for (const auto& s : p.members) {
        w.str(s.name);
        write_addr(w, s.addr);
        w.u64(s.incarnation);
        w.u8(s.state);
      }
    }
  };
  std::visit(Visitor{w}, m);
}

std::vector<std::uint8_t> encode_datagram(const Message& m) {
  BufWriter w(64);
  encode(m, w);
  return std::move(w).take();
}

std::optional<Message> decode(BufReader& r) {
  const auto tag = static_cast<MsgType>(r.u8());
  if (!r.ok()) return std::nullopt;
  Message out;
  switch (tag) {
    case MsgType::kPing: {
      Ping p;
      p.seq = r.u32();
      p.target = r.str();
      p.source = r.str();
      p.source_addr = read_addr(r);
      out = std::move(p);
      break;
    }
    case MsgType::kPingReq: {
      PingReq p;
      p.seq = r.u32();
      p.target = r.str();
      p.target_addr = read_addr(r);
      p.source = r.str();
      p.source_addr = read_addr(r);
      p.probe_timeout_us = static_cast<std::int64_t>(r.u64());
      p.want_nack = r.u8() != 0;
      out = std::move(p);
      break;
    }
    case MsgType::kAck: {
      Ack a;
      a.seq = r.u32();
      a.from = r.str();
      out = std::move(a);
      break;
    }
    case MsgType::kNack: {
      Nack n;
      n.seq = r.u32();
      n.from = r.str();
      out = std::move(n);
      break;
    }
    case MsgType::kSuspect: {
      Suspect s;
      s.member = r.str();
      s.incarnation = r.u64();
      s.from = r.str();
      out = std::move(s);
      break;
    }
    case MsgType::kAlive: {
      Alive a;
      a.member = r.str();
      a.incarnation = r.u64();
      a.addr = read_addr(r);
      out = std::move(a);
      break;
    }
    case MsgType::kDead: {
      Dead d;
      d.member = r.str();
      d.incarnation = r.u64();
      d.from = r.str();
      out = std::move(d);
      break;
    }
    case MsgType::kPushPullReq:
    case MsgType::kPushPullResp: {
      PushPull p;
      p.is_response = tag == MsgType::kPushPullResp;
      p.join = r.u8() != 0;
      p.from = r.str();
      p.from_addr = read_addr(r);
      const std::uint64_t n = r.varint();
      if (!r.ok() || n > 1'000'000) return std::nullopt;
      p.members.reserve(n);
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        MemberSnapshot s;
        s.name = r.str();
        s.addr = read_addr(r);
        s.incarnation = r.u64();
        s.state = r.u8();
        p.members.push_back(std::move(s));
      }
      out = std::move(p);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return out;
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
  if (datagram.empty()) return false;
  if (static_cast<MsgType>(datagram[0]) != MsgType::kCompound) {
    frames_out.push_back(datagram);
    return true;
  }
  BufReader r(datagram);
  (void)r.u8();
  const std::uint16_t count = r.u16();
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.varint();
    auto frame = r.raw(len);
    if (!r.ok()) return false;
    frames_out.push_back(frame);
  }
  return r.ok();
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
