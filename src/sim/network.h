// Network model: latency, loss, partitions and link-fault overlays between
// simulated nodes.
//
// Defaults approximate the paper's loopback testbed (sub-millisecond,
// lossless). UDP loss and partitions are available for failure-injection
// tests and robustness experiments; the reliable channel is never subjected
// to random loss (it models TCP) but does respect partitions and latency.
//
// Link-fault overlays (fault::Timeline network primitives) stack per node:
// asymmetric extra loss, added latency/jitter, duplication and reordering.
// Random loss / duplication / reordering afflict the UDP channel only — the
// reliable channel models TCP, whose retransmit/sequencing machinery masks
// them — while added latency delays both channels. When no overlay is
// installed anywhere, every query consumes exactly the same Rng draws as the
// pre-overlay model, so existing (scenario, seed) runs replay bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault.h"

namespace lifeguard::sim {

struct NetworkParams {
  Duration latency_min = usec(200);
  Duration latency_max = msec(2);
  /// Probability an individual UDP datagram is dropped.
  double udp_loss = 0.0;
};

class Network {
 public:
  Network(NetworkParams params, int num_nodes, Rng rng)
      : params_(params), groups_(static_cast<std::size_t>(num_nodes), 0),
        faults_(static_cast<std::size_t>(num_nodes)),
        overlay_on_(static_cast<std::size_t>(num_nodes), 0), rng_(rng) {}

  /// Sample a one-way delivery latency from the base distribution only.
  Duration sample_latency();

  /// One-way delay for a specific link: the base sample plus both endpoints'
  /// latency overlays (jitter, and — on kUdp — a possible reorder penalty).
  /// Identical to sample_latency() when no overlay touches the link.
  Duration sample_link_latency(int from_node, int to_node, Channel ch);

  /// True when the datagram should be dropped (loss, partition, or a loss
  /// overlay on either endpoint).
  bool should_drop(int from_node, int to_node, Channel ch);

  /// True when this UDP datagram should additionally be delivered twice.
  bool should_duplicate(int from_node, int to_node);

  /// Assign `node` to partition `group`; nodes in different groups cannot
  /// exchange packets. Group 0 is the default for everyone.
  void set_partition(int node, int group);
  /// The partition group `node` currently belongs to (0 = unpartitioned).
  int partition_group(int node) const {
    return groups_[static_cast<std::size_t>(node)];
  }
  /// Heal all partitions.
  void heal();

  // ---- link-fault overlays ----
  /// Install an overlay on `node`; returns a token for remove_link_fault.
  int add_link_fault(int node, const fault::LinkFault& f);
  /// Remove one overlay by its token. Unknown tokens are ignored.
  void remove_link_fault(int node, int token);
  /// Remove every overlay on every node.
  void clear_link_faults();
  /// The combined overlay currently effective on `node`.
  const fault::LinkFault& effective_fault(int node) const {
    return faults_[static_cast<std::size_t>(node)].effective;
  }
  bool has_link_faults() const { return active_overlays_ > 0; }

  NetworkParams& params() { return params_; }
  Metrics& metrics() { return metrics_; }

 private:
  struct NodeFaults {
    std::vector<std::pair<int, fault::LinkFault>> overlays;
    fault::LinkFault effective;  ///< cached combination of `overlays`
  };

  void recombine(NodeFaults& nf);

  NetworkParams params_;
  std::vector<int> groups_;
  std::vector<NodeFaults> faults_;
  /// Per-node overlay index (0/1): lets the per-datagram queries skip the
  /// combined-overlay reads entirely for nodes no fault touches, so a mostly
  /// healthy large cluster pays nothing for a fault on a few victims.
  std::vector<std::uint8_t> overlay_on_;
  int active_overlays_ = 0;
  int next_token_ = 1;
  Rng rng_;
  Metrics metrics_;
};

}  // namespace lifeguard::sim
