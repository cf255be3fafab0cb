// Wire format for the SWIM/Lifeguard protocol.
//
// One datagram carries either a single message or a Compound container of
// sub-messages (memberlist's compound message / piggybacking). Layout per
// message: a one-byte type tag followed by type-specific fields. Integers are
// little-endian, strings varint-length-prefixed. Decoding is total: any
// malformed input yields std::nullopt, never UB.
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
#include <optional>
#include <span>
#include <string>
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

struct Ping {
  std::uint32_t seq = 0;
  std::string target;       // name of the node being probed
  std::string source;       // prober's name (for ack routing diagnostics)
  Address source_addr;      // prober's address
};

struct PingReq {
  std::uint32_t seq = 0;    // origin's sequence number, echoed in Ack/Nack
  std::string target;
  Address target_addr;
  std::string source;       // origin's name
  Address source_addr;      // origin's address (relay replies here)
  std::int64_t probe_timeout_us = 0;  // origin's current (scaled) timeout
  bool want_nack = false;   // Lifeguard LHA-Probe enabled at origin
};

struct Ack {
  std::uint32_t seq = 0;
  std::string from;         // responder's name
};

struct Nack {
  std::uint32_t seq = 0;
  std::string from;         // relay's name
};

/// State gossip about one member. Shared shape for Suspect / Alive / Dead.
struct Suspect {
  std::string member;
  std::uint64_t incarnation = 0;
  std::string from;         // originator of this (independent) suspicion
};

struct Alive {
  std::string member;
  std::uint64_t incarnation = 0;
  Address addr;
};

struct Dead {
  std::string member;
  std::uint64_t incarnation = 0;
  std::string from;         // from == member encodes a graceful leave
};

/// One member's entry in a push-pull state exchange.
struct MemberSnapshot {
  std::string name;
  Address addr;
  std::uint64_t incarnation = 0;
  std::uint8_t state = 0;   // swim::MemberState numeric value
};

struct PushPull {
  bool is_response = false;
  bool join = false;        // true on the initial join exchange
  std::string from;
  Address from_addr;
  std::vector<MemberSnapshot> members;
};

using Message = std::variant<Ping, PingReq, Ack, Nack, Suspect, Alive, Dead,
                             PushPull>;

MsgType message_type(const Message& m);

/// Serialize a single message (with its type tag) into `w`.
void encode(const Message& m, BufWriter& w);

/// Convenience: encode into a fresh datagram payload.
std::vector<std::uint8_t> encode_datagram(const Message& m);

/// Decode one message starting at the reader's position. Returns nullopt on
/// malformed input (reader state is then unspecified).
std::optional<Message> decode(BufReader& r);

// ---- Compound containers -------------------------------------------------

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
  /// only one (unpack_compound splits it back into the frames).
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

/// Splits a datagram into message frames. A non-compound datagram yields one
/// frame. Returns false on malformed input.
bool unpack_compound(std::span<const std::uint8_t> datagram,
                     std::vector<std::span<const std::uint8_t>>& frames_out);

/// Byte overhead of adding one frame of `frame_size` to a compound packet.
std::size_t compound_frame_overhead(std::size_t frame_size);

/// Byte overhead of the compound header itself.
inline constexpr std::size_t kCompoundHeaderBytes = 1 + 2;  // tag + count u16

}  // namespace lifeguard::proto
