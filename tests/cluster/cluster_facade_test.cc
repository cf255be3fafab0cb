// Cluster/ClusterBuilder facade: one builder over both runtimes.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace lifeguard {
namespace {

/// Counts the records it sees, and the failed verdicts about `subject`.
/// kUdp calls it on the node loop threads.
struct CountingSink final : check::TraceSink {
  explicit CountingSink(int s) : subject(s) {}
  void on_trace_event(const check::TraceEvent& e) override {
    ++events;
    if (e.kind == check::TraceEventKind::kFailed && e.peer == subject) {
      ++failed;
    }
  }
  int subject;
  std::atomic<int> events{0};
  std::atomic<int> failed{0};
};

/// Accelerated timers keep the UDP tests short.
swim::Config fast_udp_config() {
  swim::Config cfg = swim::Config::lifeguard();
  cfg.probe_interval = msec(100);
  cfg.probe_timeout = msec(50);
  cfg.gossip_interval = msec(40);
  cfg.push_pull_interval = sec(2);
  cfg.reconnect_interval = sec(2);
  return cfg;
}

TEST(ClusterBuilder, RejectsNonPositiveSize) {
  try {
    ClusterBuilder().size(0).build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("size"), std::string::npos);
  }
}

TEST(ClusterBuilder, RejectsOversizedUdpCluster) {
  try {
    ClusterBuilder().size(1000).backend(Cluster::Backend::kUdp).build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sim backend"), std::string::npos);
  }
}

TEST(ClusterFacade, SimClusterConverges) {
  auto cluster = ClusterBuilder()
                     .size(12)
                     .config(swim::Config::lifeguard())
                     .seed(31)
                     .build();
  EXPECT_EQ(cluster->backend(), Cluster::Backend::kSim);
  EXPECT_EQ(cluster->size(), 12);
  ASSERT_NE(cluster->simulator(), nullptr);
  cluster->start();
  EXPECT_TRUE(cluster->await_convergence(sec(15)));
  EXPECT_TRUE(cluster->converged());
  for (int i = 0; i < cluster->size(); ++i) {
    EXPECT_EQ(cluster->active_members(i), 12) << "node " << i;
  }
}

TEST(ClusterFacade, SimPathIsDeterministic) {
  auto fingerprint = [](std::uint64_t seed) {
    auto cluster = ClusterBuilder()
                       .size(16)
                       .config(swim::Config::lifeguard())
                       .seed(seed)
                       .build();
    cluster->start();
    cluster->run_for(sec(30));
    const Metrics m = cluster->aggregate_metrics();
    return std::make_pair(m.counter_value("net.msgs_sent"),
                          m.counter_value("net.bytes_sent"));
  };
  EXPECT_EQ(fingerprint(5), fingerprint(5));
  EXPECT_NE(fingerprint(5), fingerprint(6));
}

TEST(ClusterFacade, SinkSeesFailureAndDetachStopsDelivery) {
  auto cluster = ClusterBuilder()
                     .size(8)
                     .config(swim::Config::lifeguard())
                     .seed(33)
                     .build();
  cluster->start();
  ASSERT_TRUE(cluster->await_convergence(sec(15)));

  CountingSink counting(3);
  CountingSink scoped(3);
  cluster->attach_sink(&counting);
  cluster->attach_sink(&scoped);
  cluster->simulator()->crash_node(3);
  cluster->run_for(sec(40));
  cluster->detach_sink(&scoped);  // counting keeps going
  EXPECT_GT(counting.failed.load(), 0)
      << "every survivor should report node-3 failed";
  const int events_before = counting.events.load();
  cluster->detach_sink(&counting);
  cluster->simulator()->crash_node(5);
  cluster->run_for(sec(40));
  EXPECT_EQ(counting.events.load(), events_before)
      << "detach_sink must stop delivery";
}

TEST(ClusterFacade, StopIsIdempotent) {
  auto cluster = ClusterBuilder().size(4).seed(35).build();
  cluster->start();
  cluster->run_for(sec(5));
  cluster->stop();
  cluster->stop();
}

TEST(ClusterFacade, UdpClusterConvergesAndDetectsFailure) {
  // Real sockets on loopback.
  CountingSink sink(2);  // outlives the cluster's loop threads
  auto cluster = ClusterBuilder()
                     .size(3)
                     .config(fast_udp_config())
                     .seed(37)
                     .backend(Cluster::Backend::kUdp)
                     .build();
  EXPECT_EQ(cluster->backend(), Cluster::Backend::kUdp);
  EXPECT_EQ(cluster->simulator(), nullptr);

  cluster->attach_sink(&sink);
  cluster->start();
  ASSERT_TRUE(cluster->await_convergence(sec(10)));

  cluster->stop_node(2);
  bool detected = false;
  for (int tries = 0; tries < 100 && !detected; ++tries) {
    detected = cluster->active_members(0) == 2 &&
               cluster->active_members(1) == 2;
    if (!detected) cluster->run_for(msec(100));
  }
  EXPECT_TRUE(detected) << "survivors never removed the stopped node";
  EXPECT_GE(sink.failed.load(), 2);
  cluster->stop();
  // Post-stop queries must not deadlock (direct access; loop threads joined).
  EXPECT_GT(cluster->aggregate_metrics().counter_value("net.msgs_sent"), 0);
  EXPECT_EQ(cluster->active_members(0), 2);
}

TEST(ClusterFacade, UdpDetachedSinkIsNeverCalledAgain) {
  // Detached while a loop thread is inside it: detach_sink waits that call
  // out, and no call starts once it has returned.
  struct SlowSink final : check::TraceSink {
    void on_trace_event(const check::TraceEvent&) override {
      ++calls;
      inside = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      inside = false;
    }
    std::atomic<int> calls{0};
    std::atomic<bool> inside{false};
  };
  SlowSink sink;  // outlives the cluster's loop threads
  auto cluster = ClusterBuilder()
                     .size(3)
                     .config(fast_udp_config())
                     .seed(39)
                     .backend(Cluster::Backend::kUdp)
                     .build();
  cluster->attach_sink(&sink);
  cluster->start();  // each node's joins reach the sink, one call at a time
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sink.inside && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(sink.inside) << "no event reached the sink";
  cluster->detach_sink(&sink);
  EXPECT_FALSE(sink.inside) << "detach_sink returned during a call";
  const int calls = sink.calls;

  // More events: the survivors suspect and fail a stopped node.
  cluster->stop_node(2);
  bool detected = false;
  for (int tries = 0; tries < 100 && !detected; ++tries) {
    detected = cluster->active_members(0) == 2 &&
               cluster->active_members(1) == 2;
    if (!detected) cluster->run_for(msec(100));
  }
  EXPECT_TRUE(detected) << "survivors never removed the stopped node";
  cluster->stop();
  EXPECT_EQ(sink.calls, calls) << "a detached sink was called";
}

}  // namespace
}  // namespace lifeguard
