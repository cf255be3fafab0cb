// Wire codec: round-trips for every message type, malformed-input rejection
// and randomized round-trip sweeps.
#include "proto/wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace lifeguard::proto {
namespace {

template <typename T>
T round_trip(const Message& in) {
  auto bytes = encode_datagram(in);
  BufReader r(bytes);
  auto out = decode(r);
  EXPECT_TRUE(out.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*out));
  return std::get<T>(*out);
}

TEST(Wire, PingRoundTrip) {
  Ping p{77, "target-node", "source-node", Address{0x0a000001, 7946}};
  const Ping q = round_trip<Ping>(p);
  EXPECT_EQ(q.seq, 77u);
  EXPECT_EQ(q.target, "target-node");
  EXPECT_EQ(q.source, "source-node");
  EXPECT_EQ(q.source_addr, (Address{0x0a000001, 7946}));
}

TEST(Wire, PingReqRoundTrip) {
  PingReq p;
  p.seq = 1234;
  p.target = "t";
  p.target_addr = {9, 1};
  p.source = "s";
  p.source_addr = {4, 2};
  p.probe_timeout_us = 4'500'000;
  p.want_nack = true;
  const PingReq q = round_trip<PingReq>(p);
  EXPECT_EQ(q.seq, 1234u);
  EXPECT_EQ(q.target_addr, (Address{9, 1}));
  EXPECT_EQ(q.source_addr, (Address{4, 2}));
  EXPECT_EQ(q.probe_timeout_us, 4'500'000);
  EXPECT_TRUE(q.want_nack);
}

TEST(Wire, AckNackRoundTrip) {
  const Ack a = round_trip<Ack>(Ack{99, "responder"});
  EXPECT_EQ(a.seq, 99u);
  EXPECT_EQ(a.from, "responder");
  const Nack n = round_trip<Nack>(Nack{100, "relay"});
  EXPECT_EQ(n.seq, 100u);
  EXPECT_EQ(n.from, "relay");
}

TEST(Wire, SuspectAliveDeadRoundTrip) {
  const Suspect s = round_trip<Suspect>(Suspect{"m", 7, "accuser"});
  EXPECT_EQ(s.member, "m");
  EXPECT_EQ(s.incarnation, 7u);
  EXPECT_EQ(s.from, "accuser");

  const Alive a = round_trip<Alive>(Alive{"m", 8, Address{1, 2}});
  EXPECT_EQ(a.incarnation, 8u);
  EXPECT_EQ(a.addr, (Address{1, 2}));

  const Dead d = round_trip<Dead>(Dead{"m", 8, "m"});
  EXPECT_EQ(d.from, "m");  // leave encoding preserved
}

TEST(Wire, PushPullRoundTrip) {
  PushPull p;
  p.is_response = true;
  p.join = true;
  p.from = "seed";
  p.from_addr = {42, 7946};
  for (int i = 0; i < 5; ++i) {
    p.members.push_back(MemberSnapshot{"n" + std::to_string(i),
                                       Address{static_cast<std::uint32_t>(i), 1},
                                       static_cast<std::uint64_t>(i * 3),
                                       static_cast<std::uint8_t>(i % 4)});
  }
  const PushPull q = round_trip<PushPull>(p);
  EXPECT_TRUE(q.is_response);
  EXPECT_TRUE(q.join);
  ASSERT_EQ(q.members.size(), 5u);
  EXPECT_EQ(q.members[3].name, "n3");
  EXPECT_EQ(q.members[3].incarnation, 9u);
  EXPECT_EQ(q.members[3].state, 3);
}

TEST(Wire, DecodeRejectsUnknownTag) {
  std::vector<std::uint8_t> bad{0x7f, 0, 0, 0};
  BufReader r(bad);
  EXPECT_FALSE(decode(r).has_value());
}

TEST(Wire, DecodeRejectsEmpty) {
  BufReader r(std::span<const std::uint8_t>{});
  EXPECT_FALSE(decode(r).has_value());
}

TEST(Wire, DecodeRejectsTruncationAtEveryPrefix) {
  // Property: no prefix of a valid encoding decodes successfully (the codec
  // must detect truncation rather than fabricate values).
  PingReq p;
  p.seq = 5;
  p.target = "target";
  p.target_addr = {1, 2};
  p.source = "source";
  p.source_addr = {3, 4};
  p.probe_timeout_us = 500000;
  p.want_nack = true;
  const auto bytes = encode_datagram(p);
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    BufReader r(std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_FALSE(decode(r).has_value()) << "prefix length " << len;
  }
}

TEST(Wire, DecodeRejectsAbsurdPushPullCount) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPushPullReq));
  w.u8(0);        // join
  w.str("x");     // from
  w.u32(1);       // addr ip
  w.u16(2);       // addr port
  w.varint(50'000'000);  // absurd member count
  BufReader r(w.bytes());
  EXPECT_FALSE(decode(r).has_value());
}

TEST(Wire, RandomGarbageNeverDecodesToCrash) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> garbage(rng.uniform(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
    BufReader r(garbage);
    (void)decode(r);  // must not crash or hang; result irrelevant
  }
  SUCCEED();
}

TEST(Wire, RandomizedSuspectRoundTripSweep) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Suspect s;
    s.member = "m" + std::to_string(rng.uniform(1000));
    s.incarnation = rng.next_u64();
    s.from = std::string(rng.uniform(40), 'f');
    const Suspect q = round_trip<Suspect>(s);
    ASSERT_EQ(q.member, s.member);
    ASSERT_EQ(q.incarnation, s.incarnation);
    ASSERT_EQ(q.from, s.from);
  }
}

}  // namespace
}  // namespace lifeguard::proto
