#include "sim/simulator.h"

#include <stdexcept>
#include <string_view>
#include <utility>

namespace lifeguard::sim {

Address sim_address(int node_index) {
  return Address{static_cast<std::uint32_t>(node_index) + 1, 7946};
}

Simulator::Simulator(int num_nodes, const swim::Config& cfg, SimParams params)
    : rng_(params.seed), cfg_(cfg) {
  std::string spec_error;
  const auto spec = membership::parse_spec(params.membership, &spec_error);
  if (!spec) throw std::invalid_argument(spec_error);
  spec_ = *spec;
  backend_ = membership::BackendRegistry::builtin().find(spec_.base);
  network_ = std::make_unique<Network>(params.network, num_nodes, rng_.fork());
  runtimes_.reserve(static_cast<std::size_t>(num_nodes));
  agents_.reserve(static_cast<std::size_t>(num_nodes));
  subscriptions_.resize(static_cast<std::size_t>(num_nodes));
  crashed_.assign(static_cast<std::size_t>(num_nodes), false);
  for (int i = 0; i < num_nodes; ++i) {
    // Backend creation is argument-for-argument the old direct
    // make_unique<swim::Node> call and draws no randomness, preserving the
    // simulator's golden-seed bit-parity for the swim backend.
    runtimes_.push_back(std::make_unique<SimRuntime>(
        *this, i, sim_address(i), rng_.fork(), params.msg_proc_cost,
        params.recv_buffer_bytes));
    agents_.push_back(backend_->create(agent_params(i), *runtimes_.back()));
    attach_node(i);
  }
}

membership::AgentParams Simulator::agent_params(int index) const {
  membership::AgentParams p;
  p.name = "node-" + std::to_string(index);
  p.address = sim_address(index);
  p.index = index;
  p.cluster_size = static_cast<int>(crashed_.size());
  p.config = cfg_;
  p.spec = spec_;
  return p;
}

namespace {

/// Reverse of the "node-<index>" naming scheme; -1 for foreign names.
int node_index_from_name(const std::string& name) {
  constexpr std::string_view kPrefix = "node-";
  if (name.size() <= kPrefix.size() || name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return -1;
  }
  int idx = 0;
  for (std::size_t i = kPrefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    idx = idx * 10 + (c - '0');
  }
  return idx;
}

}  // namespace

void Simulator::ProbeTap::on_probe_start(const std::string& target) {
  sim->note(SimEventKind::kProbeStart, node, node_index_from_name(target));
}

void Simulator::ProbeTap::on_probe_ack(const std::string& target,
                                       Duration rtt) {
  sim->note(SimEventKind::kProbeAck, node, node_index_from_name(target),
            static_cast<double>(rtt.us));
}

void Simulator::ProbeTap::on_probe_indirect(const std::string& target) {
  sim->note(SimEventKind::kProbeIndirect, node, node_index_from_name(target));
}

void Simulator::ProbeTap::on_probe_fail(const std::string& target) {
  sim->note(SimEventKind::kProbeFail, node, node_index_from_name(target));
}

void Simulator::ProbeTap::on_probe_nack(const std::string& /*target*/,
                                        const std::string& relay) {
  sim->note(SimEventKind::kProbeNack, node, node_index_from_name(relay));
}

void Simulator::attach_node(int index) {
  const auto i = static_cast<std::size_t>(index);
  membership::Agent* agent = agents_[i].get();
  swim::EventBus* bus = &bus_;
  subscriptions_[i] = agent->subscribe(
      [bus](const swim::MemberEvent& e) { bus->publish(e); });
  runtimes_[i]->attach(agent, [agent] { agent->on_unblocked(); });
  // Probe-span telemetry: one adapter per slot, surviving restart_node (the
  // fresh incarnation gets the same tap re-installed). Backends without a
  // probe pipeline ignore the observer.
  if (probe_taps_.size() <= i) probe_taps_.resize(i + 1);
  if (probe_taps_[i] == nullptr) {
    probe_taps_[i] = std::make_unique<ProbeTap>();
    probe_taps_[i]->sim = this;
    probe_taps_[i]->node = index;
  }
  agent->set_probe_observer(probe_taps_[i].get());
}

Simulator::~Simulator() {
  // Agents cancel timers against the queue in their destructors; destroy
  // them before the queue (member order already guarantees this; being
  // explicit guards against reordering).
  agents_.clear();
}

void Simulator::start_all() {
  for (auto& agent : agents_) agent->start();
  // Stagger joins within the first second, like agents brought up by a
  // provisioning system; everyone joins through node 0.
  for (int i = 1; i < size(); ++i) {
    const Duration jitter{rng_.uniform_range(1000, 1000000)};
    membership::Agent* agent = agents_[static_cast<std::size_t>(i)].get();
    at(now_ + jitter, [agent] { agent->join({sim_address(0)}); });
  }
}

void Simulator::run_until(TimePoint t) {
  while (queue_.run_next_until(t, now_)) {
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_for(Duration d) { run_until(now_ + d); }

bool Simulator::converged(int expected_active) const {
  for (const auto& agent : agents_) {
    if (!agent->running()) continue;
    if (agent->active_members() != expected_active) return false;
  }
  return true;
}

void Simulator::block_node(int index) {
  note(SimEventKind::kBlock, index);
  runtimes_[static_cast<std::size_t>(index)]->set_blocked(true);
}

void Simulator::unblock_node(int index) {
  note(SimEventKind::kUnblock, index);
  runtimes_[static_cast<std::size_t>(index)]->set_blocked(false);
}

bool Simulator::is_blocked(int index) const {
  return runtimes_[static_cast<std::size_t>(index)]->blocked();
}

void Simulator::crash_node(int index) {
  note(SimEventKind::kCrash, index);
  crashed_[static_cast<std::size_t>(index)] = true;
  agents_[static_cast<std::size_t>(index)]->stop();
  // Found by the fuzzer (scenarios/fuzz-corpus regression): a host crashed
  // while blocked kept its queued sends, and the anomaly's end flushed them
  // — datagrams from a dead node. A crash takes the kernel buffers with it.
  runtimes_[static_cast<std::size_t>(index)]->reset_on_crash();
}

void Simulator::restart_node(int index) {
  note(SimEventKind::kRestart, index);
  const auto i = static_cast<std::size_t>(index);
  retired_metrics_.merge(agents_[i]->metrics());
  crashed_[i] = false;
  runtimes_[i]->set_blocked(false);
  agents_[i] = backend_->create(agent_params(index), *runtimes_[i]);
  attach_node(index);
  agents_[i]->start();
  // Rejoin through node 0 (swim learns of its stale dead entry via push-pull
  // and refutes with a higher incarnation; central re-registers with the
  // coordinator).
  if (index != 0) agents_[i]->join({sim_address(0)});
}

void Simulator::at(TimePoint t, Task fn) { queue_.push(t, std::move(fn)); }

int Simulator::add_sim_tap(SimTap fn) {
  const int token = next_tap_token_++;
  sim_taps_.emplace_back(token, std::move(fn));
  return token;
}

void Simulator::remove_sim_tap(int token) {
  std::erase_if(sim_taps_, [token](const auto& t) { return t.first == token; });
}

void Simulator::note(SimEventKind kind, int node, int peer, double value) {
  if (sim_taps_.empty()) return;
  SimEvent e;
  e.at = now_;
  e.kind = kind;
  e.node = node;
  e.peer = peer;
  e.value = value;
  for (const auto& [token, tap] : sim_taps_) tap(e);
}

void Simulator::route(int from_node, const Address& to,
                      std::vector<std::uint8_t> payload, Channel channel) {
  const int target = index_of(to);
  if (target < 0) return;
  if (crashed_[static_cast<std::size_t>(target)]) return;  // dead host
  if (network_->should_drop(from_node, target, channel)) return;
  ++datagrams_routed_;
  note(SimEventKind::kDatagram, from_node, target);
  const Duration latency =
      network_->sample_link_latency(from_node, target, channel);
  // A duplication overlay (fault::Timeline) delivers a second, independently
  // delayed copy of a UDP datagram. Decide before the payload is moved.
  const bool duplicate = channel == Channel::kUdp &&
                         network_->should_duplicate(from_node, target);
  SimRuntime* rt = runtimes_[static_cast<std::size_t>(target)].get();
  const Address from = sim_address(from_node);
  std::vector<std::uint8_t> copy;
  if (duplicate) {
    copy = acquire_buffer();
    copy.assign(payload.begin(), payload.end());
  }
  // Task is move-only, so the delivery closure owns its payload outright and
  // stays within Task's inline capture buffer: no allocation per datagram.
  queue_.push(now_ + latency,
              [rt, from, p = std::move(payload), channel]() mutable {
                rt->deliver(from, std::move(p), channel);
              });
  if (duplicate) {
    const Duration dup_latency =
        network_->sample_link_latency(from_node, target, channel);
    ++datagrams_routed_;
    note(SimEventKind::kDatagram, from_node, target);
    queue_.push(now_ + dup_latency,
                [rt, from, p = std::move(copy), channel]() mutable {
                  rt->deliver(from, std::move(p), channel);
                });
  }
}

std::vector<std::uint8_t> Simulator::acquire_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buf.clear();
  return buf;
}

void Simulator::recycle_buffer(std::vector<std::uint8_t>&& buf) {
  // Bound both directions of pool growth: drop oversized buffers (push-pull
  // state of a huge cluster) and stop hoarding past a fixed pool size.
  constexpr std::size_t kMaxPooledCapacity = 16 * 1024;
  constexpr std::size_t kMaxPooledBuffers = 1024;
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledCapacity ||
      buffer_pool_.size() >= kMaxPooledBuffers) {
    return;
  }
  buffer_pool_.push_back(std::move(buf));
}

int Simulator::index_of(const Address& addr) const {
  const int idx = static_cast<int>(addr.ip) - 1;
  if (idx < 0 || idx >= size() || addr.port != 7946) return -1;
  return idx;
}

Metrics Simulator::aggregate_metrics() const {
  Metrics out;
  out.merge(retired_metrics_);
  for (const auto& agent : agents_) out.merge(agent->metrics());
  out.merge(network_->metrics());
  return out;
}

}  // namespace lifeguard::sim
