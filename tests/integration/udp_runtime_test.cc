// Integration: the real-socket runtime — the same protocol code over
// loopback UDP. Uses generous timeouts; wall-clock test.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "net/udp_runtime.h"
#include "swim/node.h"

namespace lifeguard {
namespace {

struct LiveNode {
  std::unique_ptr<net::UdpRuntime> rt;
  std::unique_ptr<swim::Node> node;

  LiveNode(const std::string& name, std::uint64_t seed,
           const swim::Config& cfg) {
    rt = std::make_unique<net::UdpRuntime>(0, seed);
    node = std::make_unique<swim::Node>(name, rt->local_address(), cfg, *rt);
    rt->start(node.get());
    rt->post([this] { node->start(); });
  }

  ~LiveNode() {
    rt->post([this] { node->stop(); });
    rt->shutdown();
  }
};

swim::Config fast_config() {
  // Accelerated timings keep the wall-clock test short.
  swim::Config cfg = swim::Config::lifeguard();
  cfg.probe_interval = msec(100);
  cfg.probe_timeout = msec(50);
  cfg.gossip_interval = msec(40);
  cfg.push_pull_interval = sec(2);
  return cfg;
}

int active_count(LiveNode& n) {
  // Snapshot through a posted task to stay on the loop thread.
  std::atomic<int> result{-1};
  n.rt->post([&] { result = n.node->members().num_active(); });
  for (int i = 0; i < 200 && result < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return result;
}

TEST(UdpRuntime, ThreeNodeClusterConvergesOverRealSockets) {
  const auto cfg = fast_config();
  LiveNode a("alpha", 1, cfg), b("beta", 2, cfg), c("gamma", 3, cfg);

  const Address seed_addr = a.rt->local_address();
  b.rt->post([&b, seed_addr] { b.node->join({seed_addr}); });
  c.rt->post([&c, seed_addr] { c.node->join({seed_addr}); });

  bool converged = false;
  for (int i = 0; i < 100 && !converged; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    converged = active_count(a) == 3 && active_count(b) == 3 &&
                active_count(c) == 3;
  }
  EXPECT_TRUE(converged) << "UDP cluster failed to converge within 10 s";
}

TEST(UdpRuntime, DeadPeerIsDetectedOverRealSockets) {
  const auto cfg = fast_config();
  auto a = std::make_unique<LiveNode>("alpha", 11, cfg);
  auto b = std::make_unique<LiveNode>("beta", 12, cfg);
  const Address seed_addr = a->rt->local_address();
  // The task holds the node, not `b`: the main thread resets `b` below
  // while beta's loop thread is still running.
  b->rt->post([node = b->node.get(), seed_addr] { node->join({seed_addr}); });

  for (int i = 0; i < 150 && active_count(*a) != 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_EQ(active_count(*a), 2);

  b.reset();  // hard-kill beta

  // Suspicion Min with accelerated interval: 5·1·0.1 s = 0.5 s, Max = 3 s.
  bool detected = false;
  for (int i = 0; i < 300 && !detected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    detected = active_count(*a) == 1;
  }
  EXPECT_TRUE(detected) << "alpha never declared beta dead";
}

TEST(UdpRuntime, PostRunsOnLoopThreadAndTimersFire) {
  net::UdpRuntime rt(0, 99);
  struct NullHandler : PacketHandler {
    void on_packet(const Address&, std::span<const std::uint8_t>,
                   Channel) override {}
  } handler;
  rt.start(&handler);

  std::atomic<bool> timer_fired{false};
  std::atomic<bool> cancelled_fired{false};
  rt.post([&] {
    rt.schedule(msec(50), [&] { timer_fired = true; });
    const TimerId id = rt.schedule(msec(50), [&] { cancelled_fired = true; });
    rt.cancel(id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(timer_fired);
  EXPECT_FALSE(cancelled_fired);
  rt.shutdown();
}

}  // namespace
}  // namespace lifeguard
