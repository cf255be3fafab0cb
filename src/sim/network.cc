#include "sim/network.h"

#include <algorithm>

namespace lifeguard::sim {

Duration Network::sample_latency() {
  const std::int64_t lo = params_.latency_min.us;
  const std::int64_t hi = std::max(lo, params_.latency_max.us);
  return Duration{rng_.uniform_range(lo, hi)};
}

Duration Network::sample_link_latency(int from_node, int to_node, Channel ch) {
  Duration d = sample_latency();
  if (active_overlays_ == 0) return d;  // fast path: zero extra draws
  for (int node : {from_node, to_node}) {
    const auto i = static_cast<std::size_t>(node);
    if (i >= faults_.size() || overlay_on_[i] == 0) continue;
    const fault::LinkFault& f = faults_[i].effective;
    d += f.extra_latency;
    if (f.jitter > Duration{0}) {
      d += Duration{rng_.uniform_range(0, f.jitter.us)};
    }
    if (ch == Channel::kUdp && f.reorder_p > 0.0 && rng_.chance(f.reorder_p)) {
      d += Duration{rng_.uniform_range(0, f.reorder_spread.us)};
      metrics_.counter("net.reordered").add();
    }
  }
  return d;
}

bool Network::should_drop(int from_node, int to_node, Channel ch) {
  const auto f = static_cast<std::size_t>(from_node);
  const auto t = static_cast<std::size_t>(to_node);
  if (f >= groups_.size() || t >= groups_.size()) return true;
  if (groups_[f] != groups_[t]) {
    metrics_.counter("net.dropped.partition").add();
    return true;
  }
  if (ch == Channel::kUdp && active_overlays_ > 0 &&
      (overlay_on_[f] | overlay_on_[t]) != 0) {
    const double egress = faults_[f].effective.egress_loss;
    const double ingress = faults_[t].effective.ingress_loss;
    if ((egress > 0.0 && rng_.chance(egress)) ||
        (ingress > 0.0 && rng_.chance(ingress))) {
      metrics_.counter("net.dropped.fault_loss").add();
      return true;
    }
  }
  if (ch == Channel::kUdp && rng_.chance(params_.udp_loss)) {
    metrics_.counter("net.dropped.loss").add();
    return true;
  }
  return false;
}

bool Network::should_duplicate(int from_node, int to_node) {
  if (active_overlays_ == 0) return false;
  const auto f = static_cast<std::size_t>(from_node);
  const auto t = static_cast<std::size_t>(to_node);
  if (f >= faults_.size() || t >= faults_.size()) return false;
  if ((overlay_on_[f] | overlay_on_[t]) == 0) return false;
  const double a = faults_[f].effective.duplicate_p;
  const double b = faults_[t].effective.duplicate_p;
  const double p = 1.0 - (1.0 - a) * (1.0 - b);
  if (p <= 0.0) return false;
  if (!rng_.chance(p)) return false;
  metrics_.counter("net.duplicated").add();
  return true;
}

void Network::set_partition(int node, int group) {
  const auto i = static_cast<std::size_t>(node);
  if (i < groups_.size()) groups_[i] = group;
}

void Network::heal() { std::fill(groups_.begin(), groups_.end(), 0); }

void Network::recombine(NodeFaults& nf) {
  fault::LinkFault eff;
  double keep_egress = 1.0, keep_ingress = 1.0, keep_dup = 1.0, keep_ro = 1.0;
  for (const auto& [token, f] : nf.overlays) {
    (void)token;
    keep_egress *= 1.0 - f.egress_loss;
    keep_ingress *= 1.0 - f.ingress_loss;
    keep_dup *= 1.0 - f.duplicate_p;
    keep_ro *= 1.0 - f.reorder_p;
    eff.extra_latency += f.extra_latency;
    eff.jitter += f.jitter;
    eff.reorder_spread = std::max(eff.reorder_spread, f.reorder_spread);
  }
  eff.egress_loss = 1.0 - keep_egress;
  eff.ingress_loss = 1.0 - keep_ingress;
  eff.duplicate_p = 1.0 - keep_dup;
  eff.reorder_p = 1.0 - keep_ro;
  nf.effective = eff;
}

int Network::add_link_fault(int node, const fault::LinkFault& f) {
  const auto i = static_cast<std::size_t>(node);
  if (i >= faults_.size()) return 0;
  const int token = next_token_++;
  faults_[i].overlays.emplace_back(token, f);
  recombine(faults_[i]);
  overlay_on_[i] = 1;
  ++active_overlays_;
  return token;
}

void Network::remove_link_fault(int node, int token) {
  const auto i = static_cast<std::size_t>(node);
  if (i >= faults_.size()) return;
  auto& overlays = faults_[i].overlays;
  for (auto it = overlays.begin(); it != overlays.end(); ++it) {
    if (it->first == token) {
      overlays.erase(it);
      recombine(faults_[i]);
      overlay_on_[i] = overlays.empty() ? 0 : 1;
      --active_overlays_;
      return;
    }
  }
}

}  // namespace lifeguard::sim
