// Wire format for the SWIM/Lifeguard protocol.
//
// One datagram carries either a single message or a Compound container of
// sub-messages (memberlist's compound message / piggybacking). Layout per
// message: a one-byte type tag followed by type-specific fields. Integers are
// little-endian, strings varint-length-prefixed. Parsing is total: any
// malformed input is rejected, never UB.
//
// Each message's fields are defined once, as a template over its string
// type, and used in two forms:
//   * owned (Ping, Alive, ...: std::string fields) is what senders build and
//     decode() returns;
//   * view (PingView, AliveView, ...: std::string_view fields) is what
//     parse() hands a receiver. Its strings point into the datagram, so a
//     view lives only as long as the datagram's bytes: a runtime reuses the
//     buffer once on_packet returns, and a handler copies what it keeps.
// The receive path copies nothing: FrameWalk yields a datagram's frames in
// place and parse() reads each one into its view. decode() is parse() plus
// a copy into the owned form; encode() writes either form.
//
// Message inventory mirrors memberlist plus Lifeguard's nack (paper §IV-A):
//   Ping        direct liveness probe (carries target name to catch stale
//               addressing, per memberlist)
//   PingReq     ask a relay to probe `target` on behalf of `origin`
//   Ack         answer to Ping, or relayed answer to PingReq
//   Nack        Lifeguard: relay reports it got no timely ack from target
//   Suspect     gossip: `from` suspects `member` at `incarnation`
//   Alive       gossip: `member` is alive at `incarnation` (join/refute)
//   Dead        gossip: `from` declares `member` dead; from == member means a
//               graceful leave (memberlist convention)
//   PushPullReq/PushPullResp  anti-entropy full state sync (reliable channel)
//   Compound    container; counted as ONE message in telemetry, matching the
//               paper's accounting of compound messages
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace lifeguard::proto {

enum class MsgType : std::uint8_t {
  kPing = 1,
  kPingReq = 2,
  kAck = 3,
  kNack = 4,
  kSuspect = 5,
  kAlive = 6,
  kDead = 7,
  kPushPullReq = 8,
  kPushPullResp = 9,
  kCompound = 10,
};

const char* msg_type_name(MsgType t);

template <class Str>
struct BasicPing {
  std::uint32_t seq = 0;
  Str target;               // name of the node being probed
  Str source;               // prober's name (for ack routing diagnostics)
  Address source_addr;      // prober's address
  bool operator==(const BasicPing&) const = default;
};

template <class Str>
struct BasicPingReq {
  std::uint32_t seq = 0;    // origin's sequence number, echoed in Ack/Nack
  Str target;
  Address target_addr;
  Str source;               // origin's name
  Address source_addr;      // origin's address (relay replies here)
  std::int64_t probe_timeout_us = 0;  // origin's current (scaled) timeout
  bool want_nack = false;   // Lifeguard LHA-Probe enabled at origin
  bool operator==(const BasicPingReq&) const = default;
};

template <class Str>
struct BasicAck {
  std::uint32_t seq = 0;
  Str from;                 // responder's name
  bool operator==(const BasicAck&) const = default;
};

template <class Str>
struct BasicNack {
  std::uint32_t seq = 0;
  Str from;                 // relay's name
  bool operator==(const BasicNack&) const = default;
};

/// State gossip about one member. Shared shape for Suspect / Alive / Dead.
template <class Str>
struct BasicSuspect {
  Str member;
  std::uint64_t incarnation = 0;
  Str from;                 // originator of this (independent) suspicion
  bool operator==(const BasicSuspect&) const = default;
};

template <class Str>
struct BasicAlive {
  Str member;
  std::uint64_t incarnation = 0;
  Address addr;
  bool operator==(const BasicAlive&) const = default;
};

template <class Str>
struct BasicDead {
  Str member;
  std::uint64_t incarnation = 0;
  Str from;                 // from == member encodes a graceful leave
  bool operator==(const BasicDead&) const = default;
};

/// One member's entry in a push-pull state exchange.
template <class Str>
struct BasicMemberSnapshot {
  Str name;
  Address addr;
  std::uint64_t incarnation = 0;
  std::uint8_t state = 0;   // swim::MemberState numeric value
  bool operator==(const BasicMemberSnapshot&) const = default;
};

using Ping = BasicPing<std::string>;
using PingReq = BasicPingReq<std::string>;
using Ack = BasicAck<std::string>;
using Nack = BasicNack<std::string>;
using Suspect = BasicSuspect<std::string>;
using Alive = BasicAlive<std::string>;
using Dead = BasicDead<std::string>;
using MemberSnapshot = BasicMemberSnapshot<std::string>;

using PingView = BasicPing<std::string_view>;
using PingReqView = BasicPingReq<std::string_view>;
using AckView = BasicAck<std::string_view>;
using NackView = BasicNack<std::string_view>;
using SuspectView = BasicSuspect<std::string_view>;
using AliveView = BasicAlive<std::string_view>;
using DeadView = BasicDead<std::string_view>;
using MemberSnapshotView = BasicMemberSnapshot<std::string_view>;

namespace detail {

inline void write_addr(BufWriter& w, const Address& a) {
  w.u32(a.ip);
  w.u16(a.port);
}

inline Address read_addr(BufReader& r) {
  Address a;
  a.ip = r.u32();
  a.port = r.u16();
  return a;
}

inline MemberSnapshotView read_snapshot(BufReader& r) {
  MemberSnapshotView s;
  s.name = r.str();
  s.addr = read_addr(r);
  s.incarnation = r.u64();
  s.state = r.u8();
  return s;
}

}  // namespace detail

/// A push-pull's member list in place: size() snapshots encoded back to
/// back, checked whole by parse() and read again as they are iterated.
class SnapshotList {
 public:
  class iterator {
   public:
    iterator(std::span<const std::uint8_t> bytes, std::size_t left)
        : r_(bytes), left_(left) {
      read();
    }
    const MemberSnapshotView& operator*() const { return cur_; }
    iterator& operator++() {
      --left_;
      read();
      return *this;
    }
    bool operator==(std::default_sentinel_t) const { return left_ == 0; }

   private:
    void read() {
      if (left_ > 0) cur_ = detail::read_snapshot(r_);
    }

    BufReader r_;
    std::size_t left_;
    MemberSnapshotView cur_;
  };

  SnapshotList() = default;
  SnapshotList(std::span<const std::uint8_t> bytes, std::size_t count)
      : bytes_(bytes), count_(count) {}

  std::size_t size() const { return count_; }
  iterator begin() const { return {bytes_, count_}; }
  std::default_sentinel_t end() const { return {}; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t count_ = 0;
};

template <class Str>
struct BasicPushPull {
  bool is_response = false;
  bool join = false;        // true on the initial join exchange
  Str from;
  Address from_addr;
  /// A vector in the owned form; in the view form the list in place.
  std::conditional_t<std::is_same_v<Str, std::string>,
                     std::vector<MemberSnapshot>, SnapshotList>
      members;
  bool operator==(const BasicPushPull&) const = default;
};

using PushPull = BasicPushPull<std::string>;
using PushPullView = BasicPushPull<std::string_view>;

using Message = std::variant<Ping, PingReq, Ack, Nack, Suspect, Alive, Dead,
                             PushPull>;

// ---- encoding: each message with its type tag, from either form ----------

template <class Str>
void encode(const BasicPing<Str>& p, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kPing));
  w.u32(p.seq);
  w.str(p.target);
  w.str(p.source);
  detail::write_addr(w, p.source_addr);
}

template <class Str>
void encode(const BasicPingReq<Str>& p, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kPingReq));
  w.u32(p.seq);
  w.str(p.target);
  detail::write_addr(w, p.target_addr);
  w.str(p.source);
  detail::write_addr(w, p.source_addr);
  w.u64(static_cast<std::uint64_t>(p.probe_timeout_us));
  w.u8(p.want_nack ? 1 : 0);
}

template <class Str>
void encode(const BasicAck<Str>& a, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kAck));
  w.u32(a.seq);
  w.str(a.from);
}

template <class Str>
void encode(const BasicNack<Str>& n, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kNack));
  w.u32(n.seq);
  w.str(n.from);
}

template <class Str>
void encode(const BasicSuspect<Str>& s, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kSuspect));
  w.str(s.member);
  w.u64(s.incarnation);
  w.str(s.from);
}

template <class Str>
void encode(const BasicAlive<Str>& a, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kAlive));
  w.str(a.member);
  w.u64(a.incarnation);
  detail::write_addr(w, a.addr);
}

template <class Str>
void encode(const BasicDead<Str>& d, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kDead));
  w.str(d.member);
  w.u64(d.incarnation);
  w.str(d.from);
}

template <class Str>
void encode(const BasicPushPull<Str>& p, BufWriter& w) {
  w.u8(static_cast<std::uint8_t>(p.is_response ? MsgType::kPushPullResp
                                               : MsgType::kPushPullReq));
  w.u8(p.join ? 1 : 0);
  w.str(p.from);
  detail::write_addr(w, p.from_addr);
  w.varint(p.members.size());
  for (const auto& s : p.members) {
    w.str(s.name);
    detail::write_addr(w, s.addr);
    w.u64(s.incarnation);
    w.u8(s.state);
  }
}

void encode(const Message& m, BufWriter& w);

/// Convenience: encode into a fresh datagram payload.
std::vector<std::uint8_t> encode_datagram(const Message& m);

// ---- parsing -------------------------------------------------------------

/// Most snapshots a push-pull may claim.
inline constexpr std::uint64_t kMaxSnapshots = 1'000'000;

namespace detail {

template <class Fn, class View>
bool deliver(const BufReader& r, Fn& fn, const View& view) {
  if (!r.ok()) return false;
  fn(view);
  return true;
}

}  // namespace detail

/// Parses the message at the reader's position in place and passes its view
/// (PingView, ..., PushPullView) to `fn`. Returns false, without calling
/// `fn`, on malformed input (reader state is then unspecified). Bytes after
/// the message's last field are left unread. The view's strings point into
/// the reader's bytes.
template <class Fn>
bool parse(BufReader& r, Fn&& fn) {
  const auto tag = static_cast<MsgType>(r.u8());
  if (!r.ok()) return false;
  switch (tag) {
    case MsgType::kPing: {
      PingView p;
      p.seq = r.u32();
      p.target = r.str();
      p.source = r.str();
      p.source_addr = detail::read_addr(r);
      return detail::deliver(r, fn, p);
    }
    case MsgType::kPingReq: {
      PingReqView p;
      p.seq = r.u32();
      p.target = r.str();
      p.target_addr = detail::read_addr(r);
      p.source = r.str();
      p.source_addr = detail::read_addr(r);
      p.probe_timeout_us = static_cast<std::int64_t>(r.u64());
      p.want_nack = r.u8() != 0;
      return detail::deliver(r, fn, p);
    }
    case MsgType::kAck: {
      AckView a;
      a.seq = r.u32();
      a.from = r.str();
      return detail::deliver(r, fn, a);
    }
    case MsgType::kNack: {
      NackView n;
      n.seq = r.u32();
      n.from = r.str();
      return detail::deliver(r, fn, n);
    }
    case MsgType::kSuspect: {
      SuspectView s;
      s.member = r.str();
      s.incarnation = r.u64();
      s.from = r.str();
      return detail::deliver(r, fn, s);
    }
    case MsgType::kAlive: {
      AliveView a;
      a.member = r.str();
      a.incarnation = r.u64();
      a.addr = detail::read_addr(r);
      return detail::deliver(r, fn, a);
    }
    case MsgType::kDead: {
      DeadView d;
      d.member = r.str();
      d.incarnation = r.u64();
      d.from = r.str();
      return detail::deliver(r, fn, d);
    }
    case MsgType::kPushPullReq:
    case MsgType::kPushPullResp: {
      PushPullView p;
      p.is_response = tag == MsgType::kPushPullResp;
      p.join = r.u8() != 0;
      p.from = r.str();
      p.from_addr = detail::read_addr(r);
      const std::uint64_t n = r.varint();
      if (!r.ok() || n > kMaxSnapshots) return false;
      const std::span<const std::uint8_t> list = r.rest();
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) detail::read_snapshot(r);
      if (!r.ok()) return false;
      p.members = SnapshotList(list.first(list.size() - r.remaining()),
                               static_cast<std::size_t>(n));
      return detail::deliver(r, fn, p);
    }
    default:
      return false;
  }
}

/// parse() plus a copy into the owned form: nullopt on malformed input.
std::optional<Message> decode(BufReader& r);

// ---- Compound containers -------------------------------------------------

/// Walks a datagram's message frames in place: each frame of a compound
/// container, or the whole datagram when it holds a single message. The
/// container is checked whole before the first frame is handed out, so a
/// malformed datagram yields no frame at all.
class FrameWalk {
 public:
  explicit FrameWalk(std::span<const std::uint8_t> datagram);

  /// False for an empty datagram, or a compound whose count header or one
  /// of whose length prefixes overruns it.
  bool ok() const { return ok_; }
  /// Sets `frame` to the next frame; false after the last one.
  bool next(std::span<const std::uint8_t>& frame) {
    if (left_ == 0) return false;
    --left_;
    frame = compound_ ? r_.raw(r_.varint()) : r_.rest();
    return true;
  }

 private:
  BufReader r_;
  std::size_t left_ = 0;
  bool compound_ = false;
  bool ok_ = false;
};

/// Assembles a compound datagram frame by frame, copying each frame once,
/// straight into the datagram. A single frame is emitted without the
/// compound wrapper (memberlist does the same); zero frames give an empty
/// container.
class CompoundWriter {
 public:
  /// Assembles in `reuse`'s storage (cleared first). Pass
  /// Runtime::acquire_buffer() to recycle delivered-datagram capacity
  /// instead of allocating per packet.
  explicit CompoundWriter(std::vector<std::uint8_t> reuse = {});

  /// Appends one pre-encoded message frame.
  void add(std::span<const std::uint8_t> frame);
  std::size_t count() const { return count_; }
  /// The frames so far as a compound container, wrapped even when there is
  /// only one (FrameWalk splits it back into the frames).
  std::span<const std::uint8_t> wrapped();
  /// The finished datagram.
  std::vector<std::uint8_t> take() &&;

 private:
  BufWriter w_;
  std::size_t count_ = 0;
  std::size_t first_frame_ = 0;  // offset of the first frame's bytes
};

/// Builds a compound datagram from pre-encoded message frames
/// (CompoundWriter over a list).
std::vector<std::uint8_t> pack_compound(
    const std::vector<std::vector<std::uint8_t>>& frames);

/// FrameWalk into a list: the datagram's message frames. Returns false on
/// malformed input, and then lists none.
bool unpack_compound(std::span<const std::uint8_t> datagram,
                     std::vector<std::span<const std::uint8_t>>& frames_out);

/// Byte overhead of adding one frame of `frame_size` to a compound packet.
std::size_t compound_frame_overhead(std::size_t frame_size);

/// Byte overhead of the compound header itself.
inline constexpr std::size_t kCompoundHeaderBytes = 1 + 2;  // tag + count u16

}  // namespace lifeguard::proto
