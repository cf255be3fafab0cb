// Userspace netem shim for the real-socket runtime — the live tier's
// counterpart of the simulator's link-fault overlays.
//
// net::UdpRuntime consults an optional FaultFilter for every datagram it
// sends (egress) and receives (ingress). The filter returns a small plan —
// drop, delay, duplicate — which the runtime executes with its own timer
// heap, so loss / latency / jitter / duplication / reordering behave like a
// kernel netem qdisc without privileges or root. Reordering is realized as
// probability-gated extra delay: a held-back datagram is overtaken by later
// traffic, which is exactly what a reorder qdisc produces on the wire.
//
// NetemFilter mirrors sim::Network's overlay composition rules so the same
// fault::Timeline means the same thing on both backends:
//   * stacked overlays compose loss/duplication probabilities as
//     1 - prod(1 - p_i),
//   * added latencies sum and each overlay draws its own jitter,
//   * reorder spreads take the max,
//   * loss/duplication/reordering afflict the kUdp channel only, while
//     added latency delays both channels,
//   * partition entries become peer-address block sets (both channels,
//     both directions).
// In the simulator a victim's overlay afflicts packets the victim sends
// *and* receives; the live tier mirrors that with per-endpoint filters —
// each node applies its own overlays to its egress and ingress paths, so a
// packet between two afflicted nodes passes each side's overlays exactly
// once, as it would through the one shared sim::Network.
// Overlays are keyed by caller-supplied tokens so the live fault driver can
// install and remove timeline entries independently, exactly like
// sim::Network::add_link_fault / remove_link_fault.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/fault.h"

namespace lifeguard::net {

/// What to do with one egress datagram.
struct EgressPlan {
  bool drop = false;
  Duration delay{};            ///< hold the datagram this long before sendto
  bool duplicate = false;      ///< transmit a second copy
  Duration duplicate_delay{};  ///< extra delay on the duplicate, after `delay`
};

/// What to do with one ingress datagram.
struct IngressPlan {
  bool drop = false;
  Duration delay{};            ///< hold delivery to the handler this long
  bool duplicate = false;      ///< deliver a second copy
  Duration duplicate_delay{};  ///< extra delay on the duplicate, after `delay`
};

/// Pluggable per-datagram fault seam. Called on the runtime's loop thread
/// only; implementations draw randomness from the runtime's Rng (passed in)
/// so decisions stay attributable to the run's seed.
class FaultFilter {
 public:
  virtual ~FaultFilter() = default;
  virtual EgressPlan on_egress(const Address& to, Channel channel,
                               std::size_t bytes, Rng& rng) = 0;
  virtual IngressPlan on_ingress(const Address& from, Channel channel,
                                 std::size_t bytes, Rng& rng) = 0;
};

/// Token-stacked netem overlays plus partition block sets (see file header
/// for the composition rules). All methods are loop-thread-only, matching
/// the runtime's threading model — mutate via UdpRuntime::post.
class NetemFilter : public FaultFilter {
 public:
  /// Install an overlay (a lowered link_loss / latency / duplicate / reorder
  /// timeline entry) under `token`; replaces an existing same-token one.
  void add_overlay(int token, const fault::LinkFault& o);
  /// Install a partition block set: datagrams to or from any of `peers` are
  /// dropped on both channels until the token is removed.
  void add_block_set(int token, std::vector<Address> peers);
  /// Remove whatever `token` installed; unknown tokens are a no-op.
  void remove(int token);

  std::size_t active_overlays() const { return overlays_.size(); }
  std::size_t active_block_sets() const { return blocks_.size(); }

  EgressPlan on_egress(const Address& to, Channel channel, std::size_t bytes,
                       Rng& rng) override;
  IngressPlan on_ingress(const Address& from, Channel channel,
                         std::size_t bytes, Rng& rng) override;

 private:
  bool blocked(const Address& peer) const;

  std::vector<std::pair<int, fault::LinkFault>> overlays_;
  std::vector<std::pair<int, std::vector<Address>>> blocks_;
};

}  // namespace lifeguard::net
