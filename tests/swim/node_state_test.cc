// Node state machine: SWIM §4.2 incarnation precedence rules, exercised by
// injecting wire messages into a single simulated node.
#include <gtest/gtest.h>

#include "check/tap.h"
#include "member_log.h"
#include "proto/wire.h"
#include "sim/simulator.h"

namespace lifeguard {
namespace {

using check::TraceEventKind;
using swim::MemberState;

// Members are named like simulated nodes, so the records' indices name
// them: node-1 is the member under test, node-2 and up accuse it.
class NodeState : public ::testing::Test {
 protected:
  NodeState() : sim_(make()), tap_(sim_, {&log_}) {
    node().start();
    sim_.run_for(msec(10));
  }

  static sim::Simulator make() {
    sim::SimParams p;
    p.seed = 33;
    return sim::Simulator(1, swim::Config::lifeguard(), p);
  }

  swim::Node& node() { return sim_.node(0); }

  void inject(const proto::Message& m) {
    const auto bytes = proto::encode_datagram(m);
    node().on_packet(Address{200, 1}, bytes, Channel::kUdp);
  }

  void add_member(const std::string& name, std::uint64_t inc = 0) {
    inject(proto::Alive{name, inc, Address{100, 1}});
  }

  MemberState state(const std::string& name) {
    const auto s = node().state_of(name);
    EXPECT_TRUE(s.has_value()) << name;
    return s.value_or(MemberState::kDead);
  }

  std::uint64_t inc_of(const std::string& name) {
    return node().members().find(name)->incarnation;
  }

  sim::Simulator sim_;
  /// Every membership event the node reports.
  MemberLog log_;
  check::EventTap tap_;
};

TEST_F(NodeState, AliveAddsUnknownMember) {
  add_member("node-1", 3);
  EXPECT_EQ(state("node-1"), MemberState::kAlive);
  EXPECT_EQ(inc_of("node-1"), 3u);
  EXPECT_EQ(node().members().num_active(), 2);  // self + node-1
}

TEST_F(NodeState, StaleAliveIgnored) {
  add_member("node-1", 5);
  inject(proto::Alive{"node-1", 4, Address{100, 1}});
  EXPECT_EQ(inc_of("node-1"), 5u);
}

TEST_F(NodeState, SuspectRequiresKnownMember) {
  inject(proto::Suspect{"node-9", 1, "node-2"});
  EXPECT_FALSE(node().state_of("node-9").has_value());
}

TEST_F(NodeState, SuspectMarksAliveMember) {
  add_member("node-1", 2);
  inject(proto::Suspect{"node-1", 2, "node-2"});
  EXPECT_EQ(state("node-1"), MemberState::kSuspect);
  EXPECT_EQ(inc_of("node-1"), 2u);
}

TEST_F(NodeState, StaleSuspectIgnored) {
  add_member("node-1", 5);
  inject(proto::Suspect{"node-1", 4, "node-2"});
  EXPECT_EQ(state("node-1"), MemberState::kAlive);
}

TEST_F(NodeState, EqualIncarnationAliveDoesNotRefuteSuspicion) {
  // SWIM §4.2: alive overrides suspect only with a HIGHER incarnation.
  add_member("node-1", 2);
  inject(proto::Suspect{"node-1", 2, "node-2"});
  inject(proto::Alive{"node-1", 2, Address{100, 1}});
  EXPECT_EQ(state("node-1"), MemberState::kSuspect);
}

TEST_F(NodeState, HigherIncarnationAliveRefutesSuspicion) {
  add_member("node-1", 2);
  inject(proto::Suspect{"node-1", 2, "node-2"});
  inject(proto::Alive{"node-1", 3, Address{100, 1}});
  EXPECT_EQ(state("node-1"), MemberState::kAlive);
  EXPECT_EQ(inc_of("node-1"), 3u);
  // The refutation keeps spreading: it must sit in the broadcast queue.
  EXPECT_GT(node().pending_broadcasts(), 0u);
}

TEST_F(NodeState, SuspicionTimeoutDeclaresDead) {
  add_member("node-1", 0);
  inject(proto::Suspect{"node-1", 0, "node-2"});
  // n = 2 active: Min = 5·max(1, log10(2))·1 s = 5 s; Max = 6·Min = 30 s.
  sim_.run_for(sec(31));
  EXPECT_EQ(state("node-1"), MemberState::kDead);
  // The local timeout originated a failure event.
  bool found = false;
  for (const auto& e : log_.events) {
    if (e.kind == TraceEventKind::kFailed && e.peer == 1) {
      EXPECT_TRUE(e.originated);
      EXPECT_EQ(e.node, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(NodeState, IndependentConfirmationsShrinkTimeout) {
  add_member("node-1", 0);
  inject(proto::Suspect{"node-1", 0, "node-2"});
  inject(proto::Suspect{"node-1", 0, "node-3"});
  inject(proto::Suspect{"node-1", 0, "node-4"});
  inject(proto::Suspect{"node-1", 0, "node-5"});  // K = 3 reached
  // Timeout now at Min = 5 s, not Max = 30 s.
  sim_.run_for(sec(6));
  EXPECT_EQ(state("node-1"), MemberState::kDead);
}

TEST_F(NodeState, DuplicateOriginsDoNotShrinkTimeout) {
  add_member("node-1", 0);
  inject(proto::Suspect{"node-1", 0, "node-2"});
  for (int i = 0; i < 10; ++i) inject(proto::Suspect{"node-1", 0, "node-2"});
  sim_.run_for(sec(6));
  // Still waiting (Max = 30 s).
  EXPECT_EQ(state("node-1"), MemberState::kSuspect);
}

TEST_F(NodeState, DeadMessageKillsMember) {
  add_member("node-1", 1);
  inject(proto::Dead{"node-1", 1, "node-2"});
  EXPECT_EQ(state("node-1"), MemberState::kDead);
  // Applying gossip is dissemination, not origination.
  for (const auto& e : log_.events) {
    if (e.kind == TraceEventKind::kFailed && e.peer == 1) {
      EXPECT_FALSE(e.originated);
      EXPECT_EQ(e.origin, 2);
    }
  }
}

TEST_F(NodeState, StaleDeadIgnored) {
  add_member("node-1", 5);
  inject(proto::Dead{"node-1", 3, "node-2"});
  EXPECT_EQ(state("node-1"), MemberState::kAlive);
}

TEST_F(NodeState, DeadFromSelfMeansLeft) {
  add_member("node-1", 1);
  inject(proto::Dead{"node-1", 1, "node-1"});
  EXPECT_EQ(state("node-1"), MemberState::kLeft);
  bool saw_left = false;
  for (const auto& e : log_.events) {
    saw_left |= e.kind == TraceEventKind::kLeft && e.peer == 1;
    EXPECT_NE(e.kind, TraceEventKind::kFailed);
  }
  EXPECT_TRUE(saw_left);
}

TEST_F(NodeState, SuspectOnDeadMemberIgnored) {
  add_member("node-1", 1);
  inject(proto::Dead{"node-1", 1, "node-2"});
  inject(proto::Suspect{"node-1", 1, "node-3"});
  EXPECT_EQ(state("node-1"), MemberState::kDead);
}

TEST_F(NodeState, ResurrectionWithHigherIncarnation) {
  add_member("node-1", 1);
  inject(proto::Dead{"node-1", 1, "node-2"});
  inject(proto::Alive{"node-1", 2, Address{100, 1}});
  EXPECT_EQ(state("node-1"), MemberState::kAlive);
  EXPECT_EQ(inc_of("node-1"), 2u);
}

TEST_F(NodeState, SuspectHigherIncarnationUpdatesExistingSuspicion) {
  add_member("node-1", 1);
  inject(proto::Suspect{"node-1", 1, "node-2"});
  inject(proto::Suspect{"node-1", 3, "node-3"});
  EXPECT_EQ(state("node-1"), MemberState::kSuspect);
  EXPECT_EQ(inc_of("node-1"), 3u);
  // An alive at the old incarnation can no longer refute.
  inject(proto::Alive{"node-1", 2, Address{100, 1}});
  EXPECT_EQ(state("node-1"), MemberState::kSuspect);
  inject(proto::Alive{"node-1", 4, Address{100, 1}});
  EXPECT_EQ(state("node-1"), MemberState::kAlive);
}

TEST_F(NodeState, AliveUpdatesAddress) {
  add_member("node-1", 1);
  inject(proto::Alive{"node-1", 2, Address{111, 9}});
  EXPECT_EQ(node().members().find("node-1")->addr, (Address{111, 9}));
}

TEST_F(NodeState, MalformedPacketsAreCountedAndIgnored) {
  std::vector<std::uint8_t> garbage{0xff, 0x01, 0x02};
  node().on_packet(Address{200, 1}, garbage, Channel::kUdp);
  EXPECT_GT(node().metrics().counter_value("net.malformed"), 0);
  EXPECT_EQ(node().members().num_active(), 1);
}

TEST_F(NodeState, JoinEventEmittedOnce) {
  add_member("node-1", 0);
  add_member("node-1", 0);  // duplicate alive
  int joins = 0;
  for (const auto& e : log_.events) {
    joins += e.kind == TraceEventKind::kJoin && e.peer == 1 ? 1 : 0;
  }
  EXPECT_EQ(joins, 1);
}

}  // namespace
}  // namespace lifeguard
