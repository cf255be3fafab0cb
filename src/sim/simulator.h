// Simulator — owns the virtual clock, event queue, network model and the
// cluster of membership agents. Deterministic: a (config, seed) pair replays
// identically. The failure-detection protocol is pluggable via
// SimParams::membership (membership::BackendRegistry); the default "swim"
// backend is bit-parity with the simulator's original direct use of
// swim::Node. The simulator is also the one publisher of a run's
// check::TraceEvent observation stream (attach_sink, note): each node
// slot's membership::Observer turns the agent's records (membership
// transitions and probe stages) into TraceEvents for the attached sinks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/events.h"
#include "common/metrics.h"
#include "common/names.h"
#include "common/rng.h"
#include "common/types.h"
#include "membership/backend.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/sim_runtime.h"
#include "swim/config.h"
#include "swim/node.h"

namespace lifeguard::sim {

struct SimParams {
  NetworkParams network;
  std::uint64_t seed = 1;
  /// Virtual CPU cost of handling one inbound message once a backlog exists
  /// (see SimRuntime). The anomaly instrumentation blocks I/O, not the CPU,
  /// so an agent in an open window runs at full speed — a few microseconds
  /// per datagram. Zero disables rate-limiting entirely.
  Duration msg_proc_cost = usec(5);
  /// Kernel receive-buffer bound per node (Linux rmem default ballpark).
  /// UDP datagrams past this are dropped; the reliable channel (TCP) is
  /// flow-controlled and never overflow-dropped.
  std::size_t recv_buffer_bytes = 256 * 1024;
  /// Membership backend spec ("swim", "central", "central:miss=5",
  /// "static"); see membership::BackendRegistry. The constructor throws
  /// std::invalid_argument on an unknown or malformed spec.
  std::string membership = "swim";
};

/// Address scheme for simulated nodes: ip = index + 1, port = 7946.
Address sim_address(int node_index);

class Simulator {
 public:
  Simulator(int num_nodes, const swim::Config& cfg, SimParams params);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- cluster control ----
  /// Start every node and have each (except node 0) join via node 0. The
  /// paper's experiments then allow a quiesce period before injecting
  /// anomalies.
  void start_all();
  /// Drive the event loop until the virtual clock reaches `t`.
  void run_until(TimePoint t);
  /// Convenience: run_until(now + d).
  void run_for(Duration d);
  /// True when every running node sees exactly `expected_active` active
  /// members.
  bool converged(int expected_active) const;

  // ---- anomaly injection (paper §V-D) ----
  void block_node(int index);
  void unblock_node(int index);
  bool is_blocked(int index) const;

  // ---- crash/stop (true failures) ----
  /// Hard-kill: the node stops processing everything (process death).
  void crash_node(int index);
  bool is_crashed(int index) const {
    return crashed_[static_cast<std::size_t>(index)];
  }
  /// Replace a crashed node with a fresh process at the same address (clean
  /// state, incarnation 0) and have it rejoin through node 0. The fresh
  /// incarnation reports to the slot's observer, so attached sinks see it
  /// too. Models the churn of an orchestrator restarting a failed agent.
  void restart_node(int index);

  // ---- access ----
  TimePoint now() const { return now_; }
  int size() const { return static_cast<int>(agents_.size()); }
  /// The protocol-agnostic agent at `index` (any backend).
  membership::Agent& agent(int index) {
    return *agents_[static_cast<std::size_t>(index)];
  }
  const membership::Agent& agent(int index) const {
    return *agents_[static_cast<std::size_t>(index)];
  }
  /// SWIM-specific access; throws std::bad_cast when the cluster runs a
  /// non-swim backend (callers that need swim internals — probe state,
  /// suspicion tables — are swim-only by definition).
  swim::Node& node(int index) {
    return dynamic_cast<swim::Node&>(agent(index));
  }
  const swim::Node& node(int index) const {
    return dynamic_cast<const swim::Node&>(agent(index));
  }
  /// The backend name without parameters ("central:miss=5" -> "central").
  const std::string& membership_base() const { return spec_.base; }
  /// False for control backends (static) that never declare failures.
  bool detects_failures() const { return backend_->detects_failures(); }
  SimRuntime& runtime(int index) {
    return *runtimes_[static_cast<std::size_t>(index)];
  }
  /// The name index all nodes' tables and queues share; node i is id i.
  NameIndex& names() { return names_; }
  Network& network() { return *network_; }
  const Network& network() const { return *network_; }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }
  /// Schedule an experiment-control callback at absolute time `t`.
  void at(TimePoint t, Task fn);

  // ---- observation stream (checking layer, telemetry) ----
  /// Attach a sink to the run's TraceEvent stream; every record is fanned
  /// out to the attached sinks in attach order under check::sink_wants.
  /// Sinks are pure observers: they draw no randomness and must not mutate
  /// the cluster, so attaching one never perturbs a (scenario, seed) replay.
  /// check::EventTap is the RAII handle over this pair.
  void attach_sink(check::TraceSink* sink);
  /// Detach one attachment of `sink`; a no-op when it is not attached.
  void detach_sink(check::TraceSink* sink);
  /// Publish a record stamped with the current virtual time. Returns before
  /// building it unless an attached sink wants `kind` (kDatagram in
  /// particular fires per routed datagram).
  void note(check::TraceEventKind kind, int node, int peer = -1,
            double value = 0);

  /// Aggregate node metrics plus network metrics into one registry.
  Metrics aggregate_metrics() const;
  /// Total datagrams delivered by the network (telemetry).
  std::int64_t datagrams_routed() const { return datagrams_routed_; }

  // SimRuntime-facing: route a datagram through the network model.
  void route(int from_node, const Address& to,
             std::vector<std::uint8_t> payload, Channel channel);

  // ---- datagram buffer pool ----
  // Delivered payload buffers cycle back through the pool and are handed
  // out again for the next outbound datagram (Runtime::acquire_buffer), so
  // steady-state routing allocates nothing. Pure capacity reuse: datagram
  // contents, Rng draws and event ordering are untouched.
  /// A cleared buffer with recycled capacity (empty when the pool is dry).
  std::vector<std::uint8_t> acquire_buffer();
  /// Return a spent buffer's capacity to the pool.
  void recycle_buffer(std::vector<std::uint8_t>&& buf);

 private:
  int index_of(const Address& addr) const;

  /// Factory arguments for the agent in slot `index` (also used by
  /// restart_node to build the replacement incarnation).
  membership::AgentParams agent_params(int index) const;

  /// True when an attached sink wants records of kind `k`.
  bool wants(check::TraceEventKind k) const {
    return (wanted_ >> static_cast<unsigned>(k)) & 1u;
  }
  /// Recompute wanted_ from the attached sinks.
  void refresh_wanted();

  /// Wire node `index`'s agent to its runtime and its slot's tap (also
  /// after restart_node).
  void attach_node(int index);

  /// Node slot `node`'s observer: publishes its agent's records to the
  /// attached sinks. Pure observer: draws no randomness, only translates
  /// member names to indices — and only when an attached sink wants the
  /// record.
  struct NodeTap final : membership::Observer {
    NodeTap(Simulator* s, int n) : sim(s), node(n) {}
    Simulator* sim;
    int node;
    void on_event(const membership::Event& e) override;
  };

  TimePoint now_{};
  EventQueue queue_;
  Rng rng_;
  swim::Config cfg_;
  membership::BackendSpec spec_;
  const membership::Backend* backend_ = nullptr;
  std::unique_ptr<Network> network_;
  NameIndex names_;  ///< outlives the runtimes and agents below
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
  /// One per node slot, kept across restart_node; sized once, so the
  /// agents' pointers into it stay valid. Outlives the agents.
  std::vector<NodeTap> taps_;
  std::vector<std::unique_ptr<membership::Agent>> agents_;
  std::vector<bool> crashed_;
  std::vector<check::TraceSink*> sinks_;
  /// Bit k set when an attached sink wants TraceEventKind k.
  std::uint32_t wanted_ = 0;
  /// Metrics of node incarnations retired by restart_node.
  Metrics retired_metrics_;
  std::int64_t datagrams_routed_ = 0;
  std::vector<std::vector<std::uint8_t>> buffer_pool_;
};

}  // namespace lifeguard::sim
