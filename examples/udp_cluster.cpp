// Live cluster over real UDP sockets on localhost: the same swim::Node code
// that runs in the simulator, driven by net::UdpRuntime — all assembled by
// the one ClusterBuilder facade (backend kUdp).
//
//   ./examples/udp_cluster [num_nodes]      (default 5)
//
// Starts N agents on ephemeral loopback ports, joins them through the first
// agent, prints each agent's view, then kills one agent and shows the
// failure being detected and disseminated — in real time (accelerated
// protocol timers keep the demo short).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cluster.h"

using namespace lifeguard;

namespace {

/// Prints every membership event. The cluster calls it on the node loop
/// threads, one call at a time.
struct EventPrinter final : check::TraceSink {
  void on_trace_event(const check::TraceEvent& e) override {
    const std::string reporter = "node-" + std::to_string(e.node);
    const std::string member = "node-" + std::to_string(e.peer);
    std::printf("  event: %-8s reports %-8s %s (inc %llu)\n",
                reporter.c_str(), member.c_str(),
                check::trace_event_kind_name(e.kind),
                static_cast<unsigned long long>(e.incarnation));
  }
};

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 5;
  if (n < 2 || n > 64) {
    std::fprintf(stderr, "usage: %s [2..64]\n", argv[0]);
    return 1;
  }

  // Accelerated timers: 10x faster than production so the demo takes
  // seconds, not minutes.
  swim::Config cfg = swim::Config::lifeguard();
  cfg.probe_interval = msec(100);
  cfg.probe_timeout = msec(50);
  cfg.gossip_interval = msec(40);
  cfg.push_pull_interval = sec(3);
  cfg.reconnect_interval = sec(2);

  std::printf("Starting %d agents on loopback UDP...\n", n);
  EventPrinter printer;  // outlives the cluster it is attached to
  auto cluster = ClusterBuilder()
                     .size(n)
                     .config(cfg)
                     .seed(1000)
                     .backend(Cluster::Backend::kUdp)
                     .build();
  for (int i = 0; i < n; ++i) {
    std::printf("  %s on %s\n", cluster->node(i).name().c_str(),
                cluster->node(i).address().to_string().c_str());
  }

  cluster->attach_sink(&printer);

  std::printf("\nWaiting for convergence...\n");
  cluster->start();
  cluster->await_convergence(sec(10));
  for (int i = 0; i < n; ++i) {
    std::printf("  node-%d sees %d active members\n", i,
                cluster->active_members(i));
  }

  std::printf("\nStopping node-%d (hard stop, no leave)...\n", n - 1);
  cluster->stop_node(n - 1);

  std::printf("Watching the survivors detect the failure...\n");
  for (int tries = 0; tries < 200; ++tries) {
    bool all = true;
    for (int i = 0; i < n - 1; ++i) {
      all = all && cluster->active_members(i) == n - 1;
    }
    if (all) break;
    cluster->run_for(msec(100));
  }
  for (int i = 0; i < n - 1; ++i) {
    std::printf("  node-%d sees %d active members\n", i,
                cluster->active_members(i));
  }
  std::printf("\nDone.\n");
  cluster->stop();
  return 0;
}
