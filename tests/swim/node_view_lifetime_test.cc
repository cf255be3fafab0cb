// The receive path hands each handler views into the datagram (proto/wire.h),
// valid only until on_packet returns: the simulator gives the payload buffer
// to the next outbound datagram right after. A view that outlives on_packet
// then reads another datagram's bytes, which no sanitizer flags. So two twin
// nodes receive the same datagrams, one of every message kind; one twin's
// buffers are overwritten the moment on_packet returns, the other's are
// kept intact. Both then run on, and must send the same datagrams, publish
// the same events and hold the same table.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "proto/wire.h"
#include "recording_runtime.h"
#include "swim/node.h"

namespace lifeguard {
namespace {

Address addr(int i) { return Address{static_cast<std::uint32_t>(i) + 1, 7946}; }
std::string name(int i) { return "node-" + std::to_string(i); }

/// One twin, and the observer that records its node's membership events.
struct Twin final : membership::Observer {
  explicit Twin(bool overwrite)
      : node(name(0), addr(0), swim::Config::lifeguard(), rt),
        overwrite(overwrite) {
    node.set_observer(this);
    node.start();
  }

  void on_member_event(const swim::MemberEvent& e) override {
    events.push_back(e);
  }

  void deliver(const std::vector<proto::Message>& frames, int from,
               Channel ch) {
    std::vector<std::vector<std::uint8_t>> encoded;
    for (const proto::Message& m : frames) {
      encoded.push_back(proto::encode_datagram(m));
    }
    std::vector<std::uint8_t>& bytes =
        buffers.emplace_back(proto::pack_compound(encoded));
    node.on_packet(addr(from), bytes, ch);
    // Same length, other bytes: what a view into a recycled buffer reads.
    if (overwrite) std::fill(bytes.begin(), bytes.end(), 'X');
  }

  RecordingRuntime rt;
  swim::Node node;
  bool overwrite;
  std::vector<swim::MemberEvent> events;
  /// Every delivered payload, alive to the end (overwritten or intact).
  std::vector<std::vector<std::uint8_t>> buffers;
};

/// Seq of the last Ping the node sent to `to`, or 0.
std::uint32_t last_ping_seq(const RecordingRuntime& rt, const Address& to) {
  std::uint32_t seq = 0;
  for (const RecordingRuntime::Sent& s : rt.sent) {
    if (s.to != to) continue;
    proto::FrameWalk walk(s.bytes);
    for (std::span<const std::uint8_t> frame; walk.next(frame);) {
      BufReader r(frame);
      proto::parse(r, [&seq](const auto& m) {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                     proto::PingView>) {
          seq = m.seq;
        }
      });
    }
  }
  return seq;
}

void expect_same_events(const std::vector<swim::MemberEvent>& a,
                        const std::vector<swim::MemberEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].member, b[i].member);
    EXPECT_EQ(a[i].origin, b[i].origin);
    EXPECT_EQ(a[i].incarnation, b[i].incarnation);
    EXPECT_EQ(a[i].originated, b[i].originated);
  }
}

void expect_same_table(const swim::MembershipTable& a,
                       const swim::MembershipTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const swim::Member& x = a.all()[i];
    const swim::Member& y = b.all()[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.incarnation, y.incarnation);
    EXPECT_EQ(x.state, y.state);
    EXPECT_EQ(x.state_change, y.state_change);
  }
}

TEST(NodeViewLifetime, OverwrittenPayloadsChangeNothing) {
  Twin kept(false);
  Twin overwritten(true);
  Twin* twins[] = {&kept, &overwritten};
  const auto deliver = [&](const std::vector<proto::Message>& frames,
                           int from, Channel ch = Channel::kUdp) {
    for (Twin* t : twins) t->deliver(frames, from, ch);
  };
  const auto run_for = [&](Duration d) {
    for (Twin* t : twins) t->rt.run_for(d);
  };

  // Alive: three joins in one compound (new members keep their names).
  deliver({proto::Alive{name(1), 1, addr(1)}, proto::Alive{name(2), 0, addr(2)},
           proto::Alive{name(3), 0, addr(3)}},
          1);
  run_for(msec(300));
  // Push-pull: a response is sent and the state merges, including two
  // members first seen here and a suspicion of node-1.
  proto::PushPull pp;
  pp.from = name(4);
  pp.from_addr = addr(4);
  pp.members = {{name(4), addr(4), 0, 0},
                {name(5), addr(5), 2, 0},
                {name(1), addr(1), 1, 1}};
  deliver({pp}, 4, Channel::kReliable);
  run_for(msec(300));
  // Suspect: node-3 suspects node-2, node-5 confirms, and node-3 repeats
  // itself (a known origin: no re-gossip).
  deliver({proto::Suspect{name(2), 0, name(3)}}, 3);
  deliver({proto::Suspect{name(2), 0, name(5)}}, 5);
  run_for(msec(200));
  deliver({proto::Suspect{name(2), 0, name(3)}}, 3);
  // Ping: answered with an ack.
  deliver({proto::Ping{7, name(0), name(3), addr(3)}}, 3);
  // Ping-req: relay a probe of node-4 for node-1, then forward its ack.
  deliver({proto::PingReq{9, name(4), addr(4), name(1), addr(1), 500'000,
                          true}},
          1);
  run_for(msec(50));
  const std::uint32_t relay_seq = last_ping_seq(kept.rt, addr(4));
  ASSERT_NE(relay_seq, 0u);
  deliver({proto::Ack{relay_seq, name(4)}}, 4);
  run_for(sec(2));
  // Nack and ack for the node's own probes.
  for (int i = 1; i <= 5; ++i) {
    if (const std::uint32_t seq = last_ping_seq(kept.rt, addr(i)); seq != 0) {
      deliver({proto::Nack{seq, name(i % 5 + 1)}, proto::Ack{seq, name(i)}},
              i);
    }
  }
  // Dead: node-4 declares node-5 failed; node-3 leaves.
  deliver({proto::Dead{name(5), 2, name(4)}, proto::Dead{name(3), 0, name(3)}},
          4);
  // Run on: gossip, probes, suspicion timeouts and push-pulls all read the
  // names the node kept.
  run_for(sec(90));

  EXPECT_GT(kept.rt.sent.size(), 50u);
  EXPECT_GE(kept.events.size(), 8u);
  EXPECT_EQ(kept.node.members().size(), 6u);
  ASSERT_EQ(overwritten.rt.sent.size(), kept.rt.sent.size());
  for (std::size_t i = 0; i < kept.rt.sent.size(); ++i) {
    ASSERT_TRUE(overwritten.rt.sent[i] == kept.rt.sent[i]) << "datagram " << i;
  }
  expect_same_events(overwritten.events, kept.events);
  expect_same_table(overwritten.node.members(), kept.node.members());
}

}  // namespace
}  // namespace lifeguard
