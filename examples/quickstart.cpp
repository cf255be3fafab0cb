// Quickstart: run a simulated 16-member Lifeguard cluster, watch it
// converge, crash a member and watch the failure detector at work.
//
//   ./examples/quickstart
//
// This is the five-minute tour of the public API: ClusterBuilder assembles a
// cluster of swim::Node agents over the simulator; an attached
// check::TraceSink sees every membership event as a check::TraceEvent.
#include <cstdio>
#include <string>

#include "cluster/cluster.h"

using namespace lifeguard;

namespace {

/// Prints the membership events node-0 observes.
struct Node0Printer final : check::TraceSink {
  void on_trace_event(const check::TraceEvent& e) override {
    if (!check::is_member_event(e.kind) || e.node != 0) return;
    const std::string member = "node-" + std::to_string(e.peer);
    std::printf("  [%6.2fs] %-8s saw %-8s %-7s (incarnation %llu%s)\n",
                e.at.seconds(), "node-0", member.c_str(),
                check::trace_event_kind_name(e.kind),
                static_cast<unsigned long long>(e.incarnation),
                e.originated ? ", originated here" : "");
  }
};

}  // namespace

int main() {
  Node0Printer printer;  // outlives the cluster it is attached to

  // 1. Build a 16-node cluster running full Lifeguard (all three components:
  //    LHA-Probe, LHA-Suspicion, Buddy System).
  auto cluster = ClusterBuilder()
                     .size(16)
                     .config(swim::Config::lifeguard())
                     .seed(2024)
                     .build();

  std::printf("Starting 16 agents; every agent joins via node-0...\n");
  cluster->start();
  cluster->run_for(sec(10));
  std::printf("Converged: %s (every view shows 16 active members)\n\n",
              cluster->converged() ? "yes" : "no");

  // 2. Crash a member and watch detection + dissemination, live, at node-0.
  cluster->attach_sink(&printer);
  std::printf("Crashing node-5; events observed at node-0:\n");
  cluster->simulator()->crash_node(5);
  cluster->run_for(sec(30));
  cluster->detach_sink(&printer);

  // 3. Inspect a node's view and its local health.
  const auto& node0 = cluster->node(0);
  std::printf("\nnode-0 now sees %d active members; its LHM score is %d "
              "(multiplier %dx)\n",
              node0.members().num_active(), node0.local_health().score(),
              node0.local_health().multiplier());

  // 4. Graceful leave, for contrast: no failure event is generated.
  std::printf("\nnode-7 leaves gracefully; events observed at node-0:\n");
  cluster->attach_sink(&printer);
  cluster->node(7).leave();
  cluster->run_for(sec(5));

  const Metrics m = cluster->aggregate_metrics();
  std::printf("\nCluster totals: %lld compound messages, %lld bytes, "
              "%lld refutations\n",
              static_cast<long long>(m.counter_value("net.msgs_sent")),
              static_cast<long long>(m.counter_value("net.bytes_sent")),
              static_cast<long long>(m.counter_value("swim.refutations")));
  return 0;
}
