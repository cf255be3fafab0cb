// Node state machine: SWIM §4.2 incarnation precedence rules, exercised by
// injecting wire messages into a single simulated node.
#include <gtest/gtest.h>

#include <vector>

#include "proto/wire.h"
#include "sim/simulator.h"

namespace lifeguard {
namespace {

using swim::MemberState;

class NodeState : public ::testing::Test {
 protected:
  NodeState() : sim_(make()) {
    sub_ = sim_.event_bus().subscribe(
        [this](const swim::MemberEvent& e) { events_.push_back(e); });
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
  /// Every membership event the node publishes.
  std::vector<swim::MemberEvent> events_;
  swim::EventBus::Subscription sub_;
};

TEST_F(NodeState, AliveAddsUnknownMember) {
  add_member("m", 3);
  EXPECT_EQ(state("m"), MemberState::kAlive);
  EXPECT_EQ(inc_of("m"), 3u);
  EXPECT_EQ(node().members().num_active(), 2);  // self + m
}

TEST_F(NodeState, StaleAliveIgnored) {
  add_member("m", 5);
  inject(proto::Alive{"m", 4, Address{100, 1}});
  EXPECT_EQ(inc_of("m"), 5u);
}

TEST_F(NodeState, SuspectRequiresKnownMember) {
  inject(proto::Suspect{"ghost", 1, "accuser"});
  EXPECT_FALSE(node().state_of("ghost").has_value());
}

TEST_F(NodeState, SuspectMarksAliveMember) {
  add_member("m", 2);
  inject(proto::Suspect{"m", 2, "accuser"});
  EXPECT_EQ(state("m"), MemberState::kSuspect);
  EXPECT_EQ(inc_of("m"), 2u);
}

TEST_F(NodeState, StaleSuspectIgnored) {
  add_member("m", 5);
  inject(proto::Suspect{"m", 4, "accuser"});
  EXPECT_EQ(state("m"), MemberState::kAlive);
}

TEST_F(NodeState, EqualIncarnationAliveDoesNotRefuteSuspicion) {
  // SWIM §4.2: alive overrides suspect only with a HIGHER incarnation.
  add_member("m", 2);
  inject(proto::Suspect{"m", 2, "accuser"});
  inject(proto::Alive{"m", 2, Address{100, 1}});
  EXPECT_EQ(state("m"), MemberState::kSuspect);
}

TEST_F(NodeState, HigherIncarnationAliveRefutesSuspicion) {
  add_member("m", 2);
  inject(proto::Suspect{"m", 2, "accuser"});
  inject(proto::Alive{"m", 3, Address{100, 1}});
  EXPECT_EQ(state("m"), MemberState::kAlive);
  EXPECT_EQ(inc_of("m"), 3u);
  // The refutation keeps spreading: it must sit in the broadcast queue.
  EXPECT_GT(node().pending_broadcasts(), 0u);
}

TEST_F(NodeState, SuspicionTimeoutDeclaresDead) {
  add_member("m", 0);
  inject(proto::Suspect{"m", 0, "accuser"});
  // n = 2 active: Min = 5·max(1, log10(2))·1 s = 5 s; Max = 6·Min = 30 s.
  sim_.run_for(sec(31));
  EXPECT_EQ(state("m"), MemberState::kDead);
  // The local timeout originated a failure event.
  bool found = false;
  for (const auto& e : events_) {
    if (e.type == swim::EventType::kFailed && e.member == "m") {
      EXPECT_TRUE(e.originated);
      EXPECT_EQ(e.reporter, "node-0");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(NodeState, IndependentConfirmationsShrinkTimeout) {
  add_member("m", 0);
  inject(proto::Suspect{"m", 0, "a1"});
  inject(proto::Suspect{"m", 0, "a2"});
  inject(proto::Suspect{"m", 0, "a3"});
  inject(proto::Suspect{"m", 0, "a4"});  // K = 3 reached
  // Timeout now at Min = 5 s, not Max = 30 s.
  sim_.run_for(sec(6));
  EXPECT_EQ(state("m"), MemberState::kDead);
}

TEST_F(NodeState, DuplicateOriginsDoNotShrinkTimeout) {
  add_member("m", 0);
  inject(proto::Suspect{"m", 0, "a1"});
  for (int i = 0; i < 10; ++i) inject(proto::Suspect{"m", 0, "a1"});
  sim_.run_for(sec(6));
  EXPECT_EQ(state("m"), MemberState::kSuspect);  // still waiting (Max = 30 s)
}

TEST_F(NodeState, DeadMessageKillsMember) {
  add_member("m", 1);
  inject(proto::Dead{"m", 1, "accuser"});
  EXPECT_EQ(state("m"), MemberState::kDead);
  // Applying gossip is dissemination, not origination.
  for (const auto& e : events_) {
    if (e.type == swim::EventType::kFailed && e.member == "m") {
      EXPECT_FALSE(e.originated);
      EXPECT_EQ(e.origin, "accuser");
    }
  }
}

TEST_F(NodeState, StaleDeadIgnored) {
  add_member("m", 5);
  inject(proto::Dead{"m", 3, "accuser"});
  EXPECT_EQ(state("m"), MemberState::kAlive);
}

TEST_F(NodeState, DeadFromSelfMeansLeft) {
  add_member("m", 1);
  inject(proto::Dead{"m", 1, "m"});
  EXPECT_EQ(state("m"), MemberState::kLeft);
  bool saw_left = false;
  for (const auto& e : events_) {
    saw_left |= e.type == swim::EventType::kLeft && e.member == "m";
    EXPECT_NE(e.type, swim::EventType::kFailed);
  }
  EXPECT_TRUE(saw_left);
}

TEST_F(NodeState, SuspectOnDeadMemberIgnored) {
  add_member("m", 1);
  inject(proto::Dead{"m", 1, "accuser"});
  inject(proto::Suspect{"m", 1, "other"});
  EXPECT_EQ(state("m"), MemberState::kDead);
}

TEST_F(NodeState, ResurrectionWithHigherIncarnation) {
  add_member("m", 1);
  inject(proto::Dead{"m", 1, "accuser"});
  inject(proto::Alive{"m", 2, Address{100, 1}});
  EXPECT_EQ(state("m"), MemberState::kAlive);
  EXPECT_EQ(inc_of("m"), 2u);
}

TEST_F(NodeState, SuspectHigherIncarnationUpdatesExistingSuspicion) {
  add_member("m", 1);
  inject(proto::Suspect{"m", 1, "a"});
  inject(proto::Suspect{"m", 3, "b"});
  EXPECT_EQ(state("m"), MemberState::kSuspect);
  EXPECT_EQ(inc_of("m"), 3u);
  // An alive at the old incarnation can no longer refute.
  inject(proto::Alive{"m", 2, Address{100, 1}});
  EXPECT_EQ(state("m"), MemberState::kSuspect);
  inject(proto::Alive{"m", 4, Address{100, 1}});
  EXPECT_EQ(state("m"), MemberState::kAlive);
}

TEST_F(NodeState, AliveUpdatesAddress) {
  add_member("m", 1);
  inject(proto::Alive{"m", 2, Address{111, 9}});
  EXPECT_EQ(node().members().find("m")->addr, (Address{111, 9}));
}

TEST_F(NodeState, MalformedPacketsAreCountedAndIgnored) {
  std::vector<std::uint8_t> garbage{0xff, 0x01, 0x02};
  node().on_packet(Address{200, 1}, garbage, Channel::kUdp);
  EXPECT_GT(node().metrics().counter_value("net.malformed"), 0);
  EXPECT_EQ(node().members().num_active(), 1);
}

TEST_F(NodeState, JoinEventEmittedOnce) {
  add_member("m", 0);
  add_member("m", 0);  // duplicate alive
  int joins = 0;
  for (const auto& e : events_) {
    joins += e.type == swim::EventType::kJoin && e.member == "m" ? 1 : 0;
  }
  EXPECT_EQ(joins, 1);
}

}  // namespace
}  // namespace lifeguard
