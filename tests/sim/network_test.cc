#include "sim/network.h"

#include <gtest/gtest.h>

namespace lifeguard::sim {
namespace {

TEST(Network, LatencyWithinConfiguredRange) {
  NetworkParams p;
  p.latency_min = msec(1);
  p.latency_max = msec(5);
  Network net(p, 4, Rng(1));
  for (int i = 0; i < 1000; ++i) {
    const Duration d = net.sample_latency();
    EXPECT_GE(d, msec(1));
    EXPECT_LE(d, msec(5));
  }
}

TEST(Network, DegenerateLatencyRange) {
  NetworkParams p;
  p.latency_min = msec(3);
  p.latency_max = msec(1);  // max < min: clamped to min
  Network net(p, 2, Rng(2));
  EXPECT_EQ(net.sample_latency(), msec(3));
}

TEST(Network, NoLossByDefault) {
  Network net(NetworkParams{}, 4, Rng(3));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(net.should_drop(0, 1, Channel::kUdp));
  }
}

TEST(Network, UdpLossRateApproximatelyHonored) {
  NetworkParams p;
  p.udp_loss = 0.2;
  Network net(p, 2, Rng(4));
  int dropped = 0;
  for (int i = 0; i < 10'000; ++i) {
    dropped += net.should_drop(0, 1, Channel::kUdp) ? 1 : 0;
  }
  EXPECT_NEAR(dropped, 2000, 250);
  EXPECT_EQ(net.metrics().counter_value("net.dropped.loss"), dropped);
}

TEST(Network, ReliableChannelNeverRandomlyDropped) {
  NetworkParams p;
  p.udp_loss = 1.0;  // drop all UDP
  Network net(p, 2, Rng(5));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(net.should_drop(0, 1, Channel::kUdp));
    EXPECT_FALSE(net.should_drop(0, 1, Channel::kReliable));
  }
}

TEST(Network, PartitionsBlockBothChannelsAndHeal) {
  Network net(NetworkParams{}, 4, Rng(6));
  net.set_partition(0, 1);
  net.set_partition(1, 1);
  // Within a partition: fine. Across: dropped, both channels.
  EXPECT_FALSE(net.should_drop(0, 1, Channel::kUdp));
  EXPECT_TRUE(net.should_drop(0, 2, Channel::kUdp));
  EXPECT_TRUE(net.should_drop(2, 0, Channel::kReliable));
  EXPECT_FALSE(net.should_drop(2, 3, Channel::kUdp));
  net.heal();
  EXPECT_FALSE(net.should_drop(0, 2, Channel::kUdp));
}

TEST(Network, OutOfRangeNodesDrop) {
  Network net(NetworkParams{}, 2, Rng(7));
  EXPECT_TRUE(net.should_drop(0, 5, Channel::kUdp));
  EXPECT_TRUE(net.should_drop(9, 0, Channel::kUdp));
}

// ---------------------------------------------------------------------------
// Deterministic sampling: same seed + same query sequence → same decisions.
// This is what lets campaign trials replay bit-identically.

TEST(NetworkDeterminism, LossAndLatencySequencesReplay) {
  NetworkParams p;
  p.latency_min = usec(200);
  p.latency_max = msec(2);
  p.udp_loss = 0.1;
  Network a(p, 8, Rng(42)), b(p, 8, Rng(42));
  a.set_partition(7, 1);
  b.set_partition(7, 1);
  for (int i = 0; i < 2000; ++i) {
    const int from = i % 8, to = (i * 3 + 1) % 8;
    EXPECT_EQ(a.should_drop(from, to, Channel::kUdp),
              b.should_drop(from, to, Channel::kUdp));
    EXPECT_EQ(a.sample_latency(), b.sample_latency());
  }
}

TEST(NetworkDeterminism, LinkFaultSequencesReplay) {
  Network a(NetworkParams{}, 6, Rng(43)), b(NetworkParams{}, 6, Rng(43));
  fault::LinkFault f;
  f.egress_loss = 0.3;
  f.jitter = msec(5);
  f.reorder_p = 0.2;
  f.reorder_spread = msec(50);
  f.duplicate_p = 0.25;
  a.add_link_fault(2, f);
  b.add_link_fault(2, f);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.should_drop(2, 1, Channel::kUdp),
              b.should_drop(2, 1, Channel::kUdp));
    EXPECT_EQ(a.sample_link_latency(2, 1, Channel::kUdp),
              b.sample_link_latency(2, 1, Channel::kUdp));
    EXPECT_EQ(a.should_duplicate(0, 2), b.should_duplicate(0, 2));
  }
}

// ---------------------------------------------------------------------------
// Link-fault overlays

TEST(NetworkLinkFault, EgressAndIngressLossAreAsymmetric) {
  Network net(NetworkParams{}, 4, Rng(50));
  fault::LinkFault f;
  f.egress_loss = 1.0;  // everything the victim sends dies
  net.add_link_fault(1, f);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(net.should_drop(1, 0, Channel::kUdp));   // victim egress
    EXPECT_FALSE(net.should_drop(0, 1, Channel::kUdp));  // victim ingress
    EXPECT_FALSE(net.should_drop(0, 2, Channel::kUdp));  // bystanders
  }
  EXPECT_GT(net.metrics().counter_value("net.dropped.fault_loss"), 0);
}

TEST(NetworkLinkFault, LossSparesTheReliableChannel) {
  Network net(NetworkParams{}, 4, Rng(51));
  fault::LinkFault f;
  f.egress_loss = 1.0;
  f.ingress_loss = 1.0;
  net.add_link_fault(1, f);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(net.should_drop(1, 0, Channel::kReliable));
    EXPECT_FALSE(net.should_drop(0, 1, Channel::kReliable));
  }
}

TEST(NetworkLinkFault, LatencyOverlayDelaysBothChannels) {
  NetworkParams p;
  p.latency_min = msec(1);
  p.latency_max = msec(1);
  Network net(p, 4, Rng(52));
  fault::LinkFault f;
  f.extra_latency = msec(30);
  net.add_link_fault(2, f);
  EXPECT_EQ(net.sample_link_latency(2, 0, Channel::kUdp), msec(31));
  EXPECT_EQ(net.sample_link_latency(0, 2, Channel::kReliable), msec(31));
  // Untouched links see the base sample only.
  EXPECT_EQ(net.sample_link_latency(0, 1, Channel::kUdp), msec(1));
  // Overlays on both endpoints add up.
  net.add_link_fault(0, f);
  EXPECT_EQ(net.sample_link_latency(0, 2, Channel::kUdp), msec(61));
}

TEST(NetworkLinkFault, JitterStaysInsideItsWindow) {
  NetworkParams p;
  p.latency_min = msec(1);
  p.latency_max = msec(1);
  Network net(p, 4, Rng(53));
  fault::LinkFault f;
  f.jitter = msec(10);
  net.add_link_fault(1, f);
  for (int i = 0; i < 500; ++i) {
    const Duration d = net.sample_link_latency(1, 0, Channel::kUdp);
    EXPECT_GE(d, msec(1));
    EXPECT_LE(d, msec(11));
  }
}

TEST(NetworkLinkFault, DuplicationTriggersAtTheConfiguredRate) {
  Network net(NetworkParams{}, 4, Rng(54));
  fault::LinkFault f;
  f.duplicate_p = 0.3;
  net.add_link_fault(1, f);
  int dups = 0;
  for (int i = 0; i < 10'000; ++i) dups += net.should_duplicate(1, 0) ? 1 : 0;
  EXPECT_NEAR(dups, 3000, 300);
  EXPECT_EQ(net.metrics().counter_value("net.duplicated"), dups);
  EXPECT_FALSE(net.should_duplicate(0, 2));  // bystanders never duplicate
}

TEST(NetworkLinkFault, ReorderPenaltyExtendsLatencyAndCounts) {
  NetworkParams p;
  p.latency_min = msec(1);
  p.latency_max = msec(1);
  Network net(p, 4, Rng(55));
  fault::LinkFault f;
  f.reorder_p = 1.0;
  f.reorder_spread = msec(40);
  net.add_link_fault(1, f);
  for (int i = 0; i < 200; ++i) {
    const Duration d = net.sample_link_latency(1, 0, Channel::kUdp);
    EXPECT_GE(d, msec(1));
    EXPECT_LE(d, msec(41));
  }
  EXPECT_EQ(net.metrics().counter_value("net.reordered"), 200);
  // The reliable channel (TCP model) is never reordered.
  EXPECT_EQ(net.sample_link_latency(1, 0, Channel::kReliable), msec(1));
}

TEST(NetworkLinkFault, OverlaysStackAndUnwindByToken) {
  Network net(NetworkParams{}, 4, Rng(56));
  fault::LinkFault a;
  a.egress_loss = 0.5;
  fault::LinkFault b;
  b.egress_loss = 0.5;
  b.extra_latency = msec(10);
  const int ta = net.add_link_fault(1, a);
  const int tb = net.add_link_fault(1, b);
  // Independent composition: 1 - 0.5 * 0.5.
  EXPECT_DOUBLE_EQ(net.effective_fault(1).egress_loss, 0.75);
  EXPECT_EQ(net.effective_fault(1).extra_latency, msec(10));
  net.remove_link_fault(1, ta);
  EXPECT_DOUBLE_EQ(net.effective_fault(1).egress_loss, 0.5);
  net.remove_link_fault(1, tb);
  EXPECT_FALSE(net.has_link_faults());
  EXPECT_FALSE(net.effective_fault(1).any());
  net.remove_link_fault(1, tb);  // double-remove is a no-op
}

}  // namespace
}  // namespace lifeguard::sim
