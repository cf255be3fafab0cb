// Probe pipeline: direct probe, indirect relay path, nack protocol, and
// LHA-Probe's timing backoff, on small simulated clusters.
#include <gtest/gtest.h>

#include <vector>

#include "check/tap.h"
#include "member_log.h"
#include "sim/simulator.h"

namespace lifeguard {
namespace {

sim::Simulator make(int n, const swim::Config& cfg, std::uint64_t seed) {
  sim::SimParams p;
  p.seed = seed;
  return sim::Simulator(n, cfg, p);
}

TEST(NodeProbe, SteadyStateProbesAreAcked) {
  auto sim = make(4, swim::Config::lifeguard(), 41);
  sim.start_all();
  sim.run_for(sec(20));
  for (int i = 0; i < 4; ++i) {
    auto& m = sim.node(i).metrics();
    EXPECT_GT(m.counter_value("probe.started"), 10);
    EXPECT_EQ(m.counter_value("probe.started"),
              m.counter_value("probe.acked"))
        << "node " << i;
    EXPECT_EQ(m.counter_value("probe.failed"), 0);
    EXPECT_EQ(sim.node(i).local_health().score(), 0);
  }
}

TEST(NodeProbe, CrashTriggersIndirectThenSuspicion) {
  auto sim = make(8, swim::Config::lifeguard(), 43);
  sim.start_all();
  sim.run_for(sec(10));
  ASSERT_TRUE(sim.converged(8));

  sim.crash_node(2);
  sim.run_for(sec(10));
  std::int64_t indirect = 0, relayed = 0, suspicions = 0;
  for (int i = 0; i < 8; ++i) {
    if (i == 2) continue;
    auto& m = sim.node(i).metrics();
    indirect += m.counter_value("probe.indirect");
    relayed += m.counter_value("probe.relayed");
    suspicions += m.counter_value("suspicion.started");
  }
  EXPECT_GT(indirect, 0);  // someone escalated past the direct probe
  EXPECT_GT(relayed, 0);   // someone served as relay
  EXPECT_GT(suspicions, 0);
}

TEST(NodeProbe, IndirectPathRescuesUdpLossyDirectProbe) {
  // With heavy UDP loss, the reliable-channel fallback keeps the cluster
  // converged (memberlist's motivation for the TCP fallback probe).
  swim::Config cfg = swim::Config::lifeguard();
  sim::SimParams p;
  p.seed = 47;
  p.network.udp_loss = 0.6;
  sim::Simulator sim(6, cfg, p);
  MemberLog log;
  const check::EventTap tap(sim, {&log});
  sim.start_all();
  sim.run_for(sec(40));
  // No member may be declared dead: acks flow via relays or reliable pings.
  for (const auto& e : log.events) {
    EXPECT_NE(e.kind, check::TraceEventKind::kFailed) << e.describe();
  }
}

TEST(NodeProbe, NackSentWhenTargetSilent) {
  auto sim = make(8, swim::Config::lifeguard(), 53);
  sim.start_all();
  sim.run_for(sec(10));
  sim.crash_node(5);
  sim.run_for(sec(8));
  std::int64_t nacks_sent = 0, nacks_recv = 0;
  for (int i = 0; i < 8; ++i) {
    if (i == 5) continue;
    nacks_sent += sim.node(i).metrics().counter_value("probe.nack_sent");
    nacks_recv += sim.node(i).metrics().counter_value("probe.nack_received");
  }
  EXPECT_GT(nacks_sent, 0);
  EXPECT_GT(nacks_recv, 0);
}

TEST(NodeProbe, NoNacksWithoutLhaProbe) {
  auto sim = make(8, swim::Config::swim_baseline(), 59);
  sim.start_all();
  sim.run_for(sec(10));
  sim.crash_node(5);
  sim.run_for(sec(8));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sim.node(i).metrics().counter_value("probe.nack_sent"), 0);
  }
}

TEST(NodeProbe, BlockedNodeBacksOffUnderLhaProbe) {
  auto sim = make(16, swim::Config::lifeguard(), 61);
  sim.start_all();
  sim.run_for(sec(12));
  ASSERT_TRUE(sim.converged(16));

  // Cycle node 3 through block/open windows; its failed probes, refutations
  // and missed nacks must raise the LHM.
  for (int cycle = 0; cycle < 6; ++cycle) {
    sim.block_node(3);
    sim.run_for(sec(5));
    sim.unblock_node(3);
    sim.run_for(msec(30));
  }
  EXPECT_GT(sim.node(3).local_health().score(), 0);
  // Healthy members' LHM stays near zero: their probes of healthy peers ack.
  EXPECT_LE(sim.node(7).local_health().score(), 2);
}

TEST(NodeProbe, BaselineNeverScalesTimings) {
  auto sim = make(16, swim::Config::swim_baseline(), 67);
  sim.start_all();
  sim.run_for(sec(12));
  for (int cycle = 0; cycle < 4; ++cycle) {
    sim.block_node(3);
    sim.run_for(sec(5));
    sim.unblock_node(3);
    sim.run_for(msec(30));
  }
  EXPECT_EQ(sim.node(3).local_health().score(), 0);
  EXPECT_EQ(sim.node(3).local_health().multiplier(), 1);
}

TEST(NodeProbe, MisroutedPingIsDropped) {
  auto sim = make(2, swim::Config::lifeguard(), 71);
  sim.start_all();
  sim.run_for(sec(2));
  // A ping naming the wrong target must not be acked.
  const auto bytes =
      proto::encode_datagram(proto::Ping{9, "someone-else", "node-1",
                                         sim::sim_address(1)});
  sim.node(0).on_packet(sim::sim_address(1), bytes, Channel::kUdp);
  EXPECT_EQ(sim.node(0).metrics().counter_value("probe.misrouted_ping"), 1);
}

TEST(NodeProbe, StaleAckIsCounted) {
  auto sim = make(2, swim::Config::lifeguard(), 73);
  sim.start_all();
  sim.run_for(sec(2));
  const auto bytes = proto::encode_datagram(proto::Ack{424242, "node-1"});
  sim.node(0).on_packet(sim::sim_address(1), bytes, Channel::kUdp);
  EXPECT_EQ(sim.node(0).metrics().counter_value("probe.stale_ack"), 1);
}

}  // namespace
}  // namespace lifeguard
