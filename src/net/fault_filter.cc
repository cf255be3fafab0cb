#include "net/fault_filter.h"

#include <algorithm>

namespace lifeguard::net {

void NetemFilter::add_overlay(int token, const fault::LinkFault& o) {
  remove(token);
  overlays_.emplace_back(token, o);
}

void NetemFilter::add_block_set(int token, std::vector<Address> peers) {
  remove(token);
  blocks_.emplace_back(token, std::move(peers));
}

void NetemFilter::remove(int token) {
  std::erase_if(overlays_, [token](const auto& p) { return p.first == token; });
  std::erase_if(blocks_, [token](const auto& p) { return p.first == token; });
}

bool NetemFilter::blocked(const Address& peer) const {
  for (const auto& [token, peers] : blocks_) {
    if (std::find(peers.begin(), peers.end(), peer) != peers.end()) {
      return true;
    }
  }
  return false;
}

namespace {

/// Shared overlay math for one direction: drop probability `loss_of(o)`,
/// summed latency + per-overlay jitter, composed reorder delay and composed
/// duplication. Both plan shapes have the same four fields.
template <typename Plan, typename LossOf>
Plan apply_overlays(
    const std::vector<std::pair<int, fault::LinkFault>>& overlays,
    Channel channel, Rng& rng, LossOf loss_of) {
  Plan plan;
  const bool udp = channel == Channel::kUdp;
  Duration reorder_spread{};
  double reorder_keep = 1.0;
  double dup_keep = 1.0;
  for (const auto& [token, o] : overlays) {
    // Latency delays both channels; each overlay draws its own jitter and
    // the delays sum, like stacked qdiscs (and like sim::Network).
    plan.delay += o.extra_latency;
    if (o.jitter > Duration{0}) {
      plan.delay += Duration{static_cast<std::int64_t>(
          rng.uniform(static_cast<std::uint64_t>(o.jitter.us) + 1))};
    }
    if (!udp) continue;
    const double loss = loss_of(o);
    if (loss > 0.0 && rng.chance(loss)) plan.drop = true;
    reorder_keep *= 1.0 - o.reorder_p;
    reorder_spread = std::max(reorder_spread, o.reorder_spread);
    dup_keep *= 1.0 - o.duplicate_p;
  }
  if (plan.drop) return plan;
  if (udp && reorder_keep < 1.0 && rng.chance(1.0 - reorder_keep) &&
      reorder_spread > Duration{0}) {
    plan.delay += Duration{static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(reorder_spread.us) + 1))};
  }
  if (udp && dup_keep < 1.0 && rng.chance(1.0 - dup_keep)) {
    plan.duplicate = true;
    // A tight trailing copy: real duplication delivers near-back-to-back.
    plan.duplicate_delay = Duration{static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(msec(1).us) + 1))};
  }
  return plan;
}

}  // namespace

EgressPlan NetemFilter::on_egress(const Address& to, Channel channel,
                                  std::size_t bytes, Rng& rng) {
  (void)bytes;
  if (blocked(to)) return EgressPlan{.drop = true};
  return apply_overlays<EgressPlan>(
      overlays_, channel, rng,
      [](const fault::LinkFault& o) { return o.egress_loss; });
}

IngressPlan NetemFilter::on_ingress(const Address& from, Channel channel,
                                    std::size_t bytes, Rng& rng) {
  (void)bytes;
  if (blocked(from)) return IngressPlan{.drop = true};
  return apply_overlays<IngressPlan>(
      overlays_, channel, rng,
      [](const fault::LinkFault& o) { return o.ingress_loss; });
}

}  // namespace lifeguard::net
