// Structured mutation fuzzing of the wire codec: every flipped, truncated,
// extended or spliced encoding must be accepted by the in-place parse exactly
// when the field-by-field decoder it replaced accepts it, with equal fields
// after the copy — and never crash, hang or read out of bounds. Compound
// containers get the same treatment against the old split.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "proto/wire.h"

namespace lifeguard::proto {
namespace {

std::vector<Message> corpus() {
  std::vector<Message> out;
  out.emplace_back(Ping{77, "target", "source", Address{1, 2}});
  out.emplace_back(PingReq{5, "t", Address{1, 2}, "s", Address{3, 4},
                           4'500'000, true});
  out.emplace_back(Ack{99, "from"});
  out.emplace_back(Nack{100, "relay"});
  out.emplace_back(Suspect{"member-name", 7, "accuser"});
  out.emplace_back(Alive{"member-name", 8, Address{9, 10}});
  out.emplace_back(Dead{"member-name", 9, "member-name"});
  PushPull pp;
  pp.is_response = true;
  pp.from = "seed";
  pp.from_addr = {42, 7946};
  for (int i = 0; i < 3; ++i) {
    pp.members.push_back(MemberSnapshot{
        "n" + std::to_string(i), Address{static_cast<std::uint32_t>(i), 1},
        static_cast<std::uint64_t>(i), static_cast<std::uint8_t>(i % 4)});
  }
  out.emplace_back(pp);
  return out;
}

/// The field-by-field decoder that parse() replaced, kept as the oracle of
/// what the wire accepts: each field read into an owned string or integer,
/// the message rejected if any read fails, trailing bytes left unread.
std::optional<Message> field_decode(BufReader& r) {
  const auto tag = static_cast<MsgType>(r.u8());
  if (!r.ok()) return std::nullopt;
  const auto str = [&r] { return std::string(r.str()); };
  const auto addr = [&r] {
    Address a;
    a.ip = r.u32();
    a.port = r.u16();
    return a;
  };
  Message out;
  switch (tag) {
    case MsgType::kPing: {
      Ping p;
      p.seq = r.u32();
      p.target = str();
      p.source = str();
      p.source_addr = addr();
      out = std::move(p);
      break;
    }
    case MsgType::kPingReq: {
      PingReq p;
      p.seq = r.u32();
      p.target = str();
      p.target_addr = addr();
      p.source = str();
      p.source_addr = addr();
      p.probe_timeout_us = static_cast<std::int64_t>(r.u64());
      p.want_nack = r.u8() != 0;
      out = std::move(p);
      break;
    }
    case MsgType::kAck: {
      Ack a;
      a.seq = r.u32();
      a.from = str();
      out = std::move(a);
      break;
    }
    case MsgType::kNack: {
      Nack n;
      n.seq = r.u32();
      n.from = str();
      out = std::move(n);
      break;
    }
    case MsgType::kSuspect: {
      Suspect x;
      x.member = str();
      x.incarnation = r.u64();
      x.from = str();
      out = std::move(x);
      break;
    }
    case MsgType::kAlive: {
      Alive a;
      a.member = str();
      a.incarnation = r.u64();
      a.addr = addr();
      out = std::move(a);
      break;
    }
    case MsgType::kDead: {
      Dead d;
      d.member = str();
      d.incarnation = r.u64();
      d.from = str();
      out = std::move(d);
      break;
    }
    case MsgType::kPushPullReq:
    case MsgType::kPushPullResp: {
      PushPull p;
      p.is_response = tag == MsgType::kPushPullResp;
      p.join = r.u8() != 0;
      p.from = str();
      p.from_addr = addr();
      const std::uint64_t n = r.varint();
      if (!r.ok() || n > 1'000'000) return std::nullopt;
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        MemberSnapshot m;
        m.name = str();
        m.addr = addr();
        m.incarnation = r.u64();
        m.state = r.u8();
        p.members.push_back(std::move(m));
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

/// The split that FrameWalk replaced, kept as the oracle: false on any
/// overrun, else the frames.
std::optional<std::vector<std::span<const std::uint8_t>>> field_unpack(
    std::span<const std::uint8_t> datagram) {
  if (datagram.empty()) return std::nullopt;
  if (static_cast<MsgType>(datagram[0]) != MsgType::kCompound) {
    return std::vector{datagram};
  }
  std::vector<std::span<const std::uint8_t>> frames;
  BufReader r(datagram);
  (void)r.u8();
  const std::uint16_t count = r.u16();
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.varint();
    auto frame = r.raw(len);
    if (!r.ok()) return std::nullopt;
    frames.push_back(frame);
  }
  if (!r.ok()) return std::nullopt;
  return frames;
}

/// The in-place parse accepts `bytes` exactly when the field decoder does,
/// reads as far, and decode() (parse plus copy) gives equal fields. Returns
/// whether it was accepted.
bool expect_parse_matches(std::span<const std::uint8_t> bytes) {
  BufReader oracle_r(bytes);
  const std::optional<Message> want = field_decode(oracle_r);

  BufReader parse_r(bytes);
  int calls = 0;
  const bool parsed = parse(parse_r, [&calls](const auto&) { ++calls; });
  EXPECT_EQ(parsed, want.has_value());
  EXPECT_EQ(calls, parsed ? 1 : 0);
  if (parsed && want) {
    EXPECT_EQ(parse_r.remaining(), oracle_r.remaining());
  }

  BufReader decode_r(bytes);
  const std::optional<Message> got = decode(decode_r);
  EXPECT_EQ(got.has_value(), want.has_value());
  if (got && want) {
    EXPECT_TRUE(*got == *want);
    // An accepted message re-encodes to the bytes it was read from, up to
    // its last field (a bool is written back as 0 or 1).
    BufWriter w;
    encode(*got, w);
    BufReader again(w.bytes());
    EXPECT_TRUE(decode(again) == got);
  }
  return want.has_value();
}

/// FrameWalk splits `datagram` exactly as the old split did, and each frame
/// parses exactly as the field decoder reads it.
void expect_walk_matches(std::span<const std::uint8_t> datagram) {
  const auto want = field_unpack(datagram);
  FrameWalk walk(datagram);
  EXPECT_EQ(walk.ok(), want.has_value());
  std::vector<std::span<const std::uint8_t>> frames;
  for (std::span<const std::uint8_t> f; walk.next(f);) frames.push_back(f);
  if (!want) {
    EXPECT_TRUE(frames.empty());
    return;
  }
  ASSERT_EQ(frames.size(), want->size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].data(), (*want)[i].data());
    EXPECT_EQ(frames[i].size(), (*want)[i].size());
    expect_parse_matches(frames[i]);
  }
}

TEST(WireMutation, EverySingleByteFlipIsHandled) {
  int accepted = 0;
  int rejected = 0;
  for (const Message& m : corpus()) {
    const auto bytes = encode_datagram(m);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (std::uint8_t flip : {0x01, 0x80, 0xff}) {
        auto mutated = bytes;
        mutated[pos] ^= flip;
        (expect_parse_matches(mutated) ? accepted : rejected) += 1;
      }
    }
  }
  // Both verdicts are exercised.
  EXPECT_GT(accepted, 100) << rejected;
  EXPECT_GT(rejected, 50) << accepted;
}

TEST(WireMutation, EveryTruncationIsHandled) {
  for (const Message& m : corpus()) {
    const auto bytes = encode_datagram(m);
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      const bool whole = len == bytes.size();
      EXPECT_EQ(expect_parse_matches(
                    std::span<const std::uint8_t>(bytes.data(), len)),
                whole)
          << "length " << len << " of " << bytes.size();
    }
  }
}

TEST(WireMutation, TrailingBytesAfterTheLastFieldAreAccepted) {
  lifeguard::Rng rng(77);
  for (const Message& m : corpus()) {
    auto bytes = encode_datagram(m);
    const std::size_t end = bytes.size();
    for (int extra = 1; extra <= 4; ++extra) {
      bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      EXPECT_TRUE(expect_parse_matches(bytes));
      BufReader r(bytes);
      ASSERT_TRUE(parse(r, [](const auto&) {}));
      EXPECT_EQ(r.remaining(), bytes.size() - end);
    }
  }
}

TEST(WireMutation, RandomMultiByteMutations) {
  // Several bytes at once, so varint lengths and counts also go wrong in
  // ways a single flip does not reach.
  lifeguard::Rng rng(99);
  const auto msgs = corpus();
  for (int round = 0; round < 4000; ++round) {
    auto bytes = encode_datagram(msgs[rng.uniform(msgs.size())]);
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int i = 0; i < mutations; ++i) {
      bytes[rng.uniform(bytes.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    expect_parse_matches(bytes);
  }
}

TEST(WireMutation, RandomSplicesIntoCompounds) {
  lifeguard::Rng rng(424242);
  const auto msgs = corpus();
  for (int round = 0; round < 300; ++round) {
    // Build a compound from 1-4 random messages, then splice random bytes.
    std::vector<std::vector<std::uint8_t>> frames;
    const int n = 1 + static_cast<int>(rng.uniform(4));
    for (int i = 0; i < n; ++i) {
      frames.push_back(
          encode_datagram(msgs[static_cast<std::size_t>(rng.uniform(msgs.size()))]));
    }
    auto packed = pack_compound(frames);
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int i = 0; i < mutations; ++i) {
      packed[static_cast<std::size_t>(rng.uniform(packed.size()))] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    expect_walk_matches(packed);
    std::vector<std::span<const std::uint8_t>> out;
    EXPECT_EQ(unpack_compound(packed, out), field_unpack(packed).has_value());
  }
}

TEST(WireMutation, CompoundCountHeaderLies) {
  // A compound whose count header claims more frames than present must be
  // rejected, not over-read.
  auto packed = pack_compound({encode_datagram(Ack{1, "a"}),
                               encode_datagram(Ack{2, "b"})});
  ASSERT_EQ(static_cast<MsgType>(packed[0]), MsgType::kCompound);
  packed[1] = 0xff;  // count low byte -> 255 frames claimed
  std::vector<std::span<const std::uint8_t>> out;
  EXPECT_FALSE(unpack_compound(packed, out));
}

TEST(WireMutation, NestedCompoundIsNotRecursed) {
  // A compound frame containing another compound tag must not cause
  // unbounded recursion at the node layer: unpack returns the inner bytes as
  // a frame; decode() then rejects the compound tag as a message.
  auto inner = pack_compound({encode_datagram(Ack{1, "a"}),
                              encode_datagram(Ack{2, "b"})});
  auto outer = pack_compound({inner, encode_datagram(Ack{3, "c"})});
  std::vector<std::span<const std::uint8_t>> out;
  ASSERT_TRUE(unpack_compound(outer, out));
  ASSERT_EQ(out.size(), 2u);
  BufReader r(out[0]);
  EXPECT_FALSE(decode(r).has_value());  // compound is not a message type
}

}  // namespace
}  // namespace lifeguard::proto
