// lifeguard::Cluster — one facade over both execution substrates.
//
// A Cluster owns N swim::Node agents plus the runtimes that drive them, and
// hides the Node↔Runtime wiring that examples and the harness used to do by
// hand. Two backends:
//
//   * kSim — the deterministic discrete-event simulator (sim::Simulator).
//     run_for() advances the virtual clock; a (config, seed) pair replays
//     identically. simulator() exposes the underlying Simulator for anomaly
//     injection.
//   * kUdp — real loopback UDP sockets, one runtime loop thread per node
//     (net::UdpRuntime). run_for() sleeps wall-clock time; queries are
//     marshalled onto each node's loop thread.
//
// A cluster is observed through check::TraceSinks: attach_sink() delivers
// every node's membership events as check::TraceEvents (see check/events.h).
//
// Build via ClusterBuilder:
//
//   auto cluster = lifeguard::ClusterBuilder()
//                      .size(16)
//                      .config(swim::Config::lifeguard())
//                      .seed(42)
//                      .build();          // sim backend by default
//   cluster->start();
//   cluster->run_for(sec(15));
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "check/events.h"
#include "common/metrics.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "swim/config.h"
#include "swim/node.h"

namespace lifeguard {

class Cluster {
 public:
  enum class Backend { kSim, kUdp };

  ~Cluster();
  Cluster(Cluster&&) noexcept;
  Cluster& operator=(Cluster&&) noexcept;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Backend backend() const;
  int size() const;

  /// Start every node; all nodes except node 0 join through node 0.
  /// Idempotent.
  void start();
  /// Advance time by `d`: virtual clock (sim) or wall clock (udp).
  void run_for(Duration d);
  /// True when every running node sees exactly size() active members.
  bool converged() const;
  /// Run in small steps until converged() or `timeout` elapses; returns
  /// whether convergence was reached.
  bool await_convergence(Duration timeout);
  /// Stop every node. Idempotent; also invoked by the destructor.
  void stop();

  /// Attach a sink to the cluster's TraceEvent stream until detach_sink.
  /// kSim: the simulator's own pair (every record kind, under
  /// check::sink_wants). kUdp: every node's membership events, delivered on
  /// the node loop threads one at a time under the cluster's lock, so a sink
  /// needs no lock of its own but must not call back into the cluster.
  void attach_sink(check::TraceSink* sink);
  /// Detach one attachment of `sink`; a no-op when it is not attached. Once
  /// it returns, the sink is not called again (kUdp: it waits out a call in
  /// flight on a loop thread).
  void detach_sink(check::TraceSink* sink);

  /// Node access. UDP backend: any use beyond name()/address() must be
  /// marshalled onto that node's loop thread — prefer the query helpers.
  swim::Node& node(int index);
  /// Thread-safe query of one node's active-member count.
  int active_members(int index) const;
  /// Hard-stop one node (no graceful leave), marshalled onto its loop
  /// thread on the UDP backend. The rest of the cluster keeps running.
  void stop_node(int index);
  /// Hard-kill one node (process death: it stops processing everything).
  /// Used by churn-style faults; on kUdp this is stop_node.
  void crash_node(int index);
  /// Replace a crashed node with a fresh process at the same address and
  /// rejoin it through node 0 (see sim::Simulator::restart_node). kSim only;
  /// throws std::invalid_argument on the UDP backend.
  void restart_node(int index);

  /// Merged metrics of every node (plus the network model on kSim).
  Metrics aggregate_metrics() const;

  /// The underlying simulator, or nullptr on the kUdp backend.
  sim::Simulator* simulator();

 private:
  friend class ClusterBuilder;
  struct Impl;
  explicit Cluster(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Fluent builder; build() validates and throws std::invalid_argument with
/// an actionable message on bad combinations.
class ClusterBuilder {
 public:
  ClusterBuilder& size(int num_nodes);
  ClusterBuilder& config(const swim::Config& cfg);
  ClusterBuilder& seed(std::uint64_t seed);
  ClusterBuilder& backend(Cluster::Backend b);
  /// Network model (kSim only).
  ClusterBuilder& network(const sim::NetworkParams& params);
  /// Per-message CPU cost once a backlog exists (kSim only).
  ClusterBuilder& msg_proc_cost(Duration cost);
  /// Simulated kernel receive-buffer bound per node (kSim only).
  ClusterBuilder& recv_buffer_bytes(std::size_t bytes);
  /// No-op, kept only because perfbench/lgbench.cc calls it: the simulator
  /// keeps no per-node event logs; every event flows to the attached sinks.
  ClusterBuilder& record_failures_only(bool on);
  /// Membership backend spec (kSim only; see membership::BackendRegistry):
  /// "swim" (default), "central", "central:miss=N", "static". The UDP
  /// backend only runs swim; build() throws otherwise.
  ClusterBuilder& membership(std::string spec);

  std::unique_ptr<Cluster> build() const;

 private:
  int size_ = 8;
  swim::Config config_ = swim::Config::lifeguard();
  std::uint64_t seed_ = 1;
  Cluster::Backend backend_ = Cluster::Backend::kSim;
  sim::SimParams sim_params_;
};

}  // namespace lifeguard
