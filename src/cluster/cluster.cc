#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/udp_runtime.h"

namespace lifeguard {

namespace {

/// Run `fn` on a UDP runtime's loop thread and wait for its result.
template <typename T>
T query_on_loop(net::UdpRuntime& rt, std::function<T()> fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  T result{};
  rt.post([&] {
    T value = fn();
    // Notify under the lock: once the waiter sees `done` it returns and
    // destroys `cv`, so the loop thread must be out of notify_one by then.
    const std::lock_guard<std::mutex> lock(mu);
    result = std::move(value);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

}  // namespace

struct Cluster::Impl {
  Cluster::Backend backend = Cluster::Backend::kSim;
  int size = 0;
  bool started = false;
  bool stopped = false;

  // ---- kSim ----
  std::unique_ptr<sim::Simulator> sim;

  // ---- kUdp ----
  /// Node `index`'s observer: forwards its membership events, as records,
  /// to the attached sinks. Runs on that node's loop thread.
  struct Forwarder final : membership::Observer {
    Forwarder(Impl* i, int n) : impl(i), index(n) {}
    Impl* impl;
    int index;
    void on_member_event(const swim::MemberEvent& e) override {
      const std::lock_guard<std::mutex> lock(impl->sinks_mu);
      if (impl->sinks.empty()) return;
      check::publish(impl->sinks, check::trace_event_of(e, index));
    }
  };
  /// Serialises the forwarders (one per loop thread) against
  /// attach_sink/detach_sink: the one cross-thread path of a UDP cluster.
  std::mutex sinks_mu;
  std::vector<check::TraceSink*> sinks;
  /// One per node, sized once; declared before `agents` so the nodes that
  /// point at them go first.
  std::vector<Forwarder> forwarders;
  struct UdpAgent {
    std::unique_ptr<net::UdpRuntime> rt;
    std::unique_ptr<swim::Node> node;
  };
  std::vector<UdpAgent> agents;
};

Cluster::Cluster(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Cluster::Cluster(Cluster&&) noexcept = default;
Cluster& Cluster::operator=(Cluster&&) noexcept = default;

Cluster::~Cluster() {
  if (impl_) stop();
}

Cluster::Backend Cluster::backend() const { return impl_->backend; }

int Cluster::size() const { return impl_->size; }

void Cluster::start() {
  if (impl_->started) return;
  impl_->started = true;
  if (impl_->sim) {
    impl_->sim->start_all();
    return;
  }
  for (auto& agent : impl_->agents) {
    swim::Node* node = agent.node.get();
    agent.rt->post([node] { node->start(); });
  }
  const Address seed_addr = impl_->agents[0].rt->local_address();
  for (std::size_t i = 1; i < impl_->agents.size(); ++i) {
    swim::Node* node = impl_->agents[i].node.get();
    impl_->agents[i].rt->post([node, seed_addr] { node->join({seed_addr}); });
  }
}

void Cluster::run_for(Duration d) {
  if (impl_->sim) {
    impl_->sim->run_for(d);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(d.us));
}

bool Cluster::converged() const {
  for (int i = 0; i < impl_->size; ++i) {
    if (active_members(i) != impl_->size) return false;
  }
  return true;
}

bool Cluster::await_convergence(Duration timeout) {
  const Duration step = impl_->sim ? msec(500) : msec(100);
  Duration waited{};
  while (true) {
    if (converged()) return true;
    if (waited >= timeout) return false;
    run_for(step);
    waited += step;
  }
}

void Cluster::stop() {
  if (impl_->stopped) return;
  impl_->stopped = true;
  if (impl_->sim) {
    for (int i = 0; i < impl_->size; ++i) impl_->sim->agent(i).stop();
    return;
  }
  for (auto& agent : impl_->agents) {
    swim::Node* node = agent.node.get();
    agent.rt->post([node] { node->stop(); });
  }
  for (auto& agent : impl_->agents) agent.rt->shutdown();
}

void Cluster::attach_sink(check::TraceSink* sink) {
  if (impl_->sim) {
    impl_->sim->attach_sink(sink);
    return;
  }
  const std::lock_guard<std::mutex> lock(impl_->sinks_mu);
  impl_->sinks.push_back(sink);
}

void Cluster::detach_sink(check::TraceSink* sink) {
  if (impl_->sim) {
    impl_->sim->detach_sink(sink);
    return;
  }
  const std::lock_guard<std::mutex> lock(impl_->sinks_mu);
  const auto it = std::find(impl_->sinks.begin(), impl_->sinks.end(), sink);
  if (it != impl_->sinks.end()) impl_->sinks.erase(it);
}

swim::Node& Cluster::node(int index) {
  if (impl_->sim) return impl_->sim->node(index);
  return *impl_->agents[static_cast<std::size_t>(index)].node;
}

int Cluster::active_members(int index) const {
  if (impl_->sim) return impl_->sim->agent(index).active_members();
  auto& agent = impl_->agents[static_cast<std::size_t>(index)];
  swim::Node* node = agent.node.get();
  // After stop() the loop threads are joined: posting would never run (and
  // would deadlock the wait), but direct access is race-free.
  if (impl_->stopped) return node->members().num_active();
  return query_on_loop<int>(*agent.rt,
                            [node] { return node->members().num_active(); });
}

void Cluster::stop_node(int index) {
  if (impl_->stopped) return;  // already stopped cluster-wide
  if (impl_->sim) {
    impl_->sim->agent(index).stop();
    return;
  }
  auto& agent = impl_->agents[static_cast<std::size_t>(index)];
  swim::Node* node = agent.node.get();
  agent.rt->post([node] { node->stop(); });
}

void Cluster::crash_node(int index) {
  if (impl_->sim) {
    impl_->sim->crash_node(index);
    return;
  }
  stop_node(index);
}

void Cluster::restart_node(int index) {
  if (impl_->sim) {
    impl_->sim->restart_node(index);
    return;
  }
  throw std::invalid_argument(
      "Cluster::restart_node is only supported on the sim backend — the UDP "
      "runtime joins its loop thread on stop and cannot be restarted yet");
}

Metrics Cluster::aggregate_metrics() const {
  if (impl_->sim) return impl_->sim->aggregate_metrics();
  Metrics out;
  for (auto& agent : impl_->agents) {
    swim::Node* node = agent.node.get();
    if (impl_->stopped) {
      out.merge(node->metrics());  // loop threads joined; direct is safe
    } else {
      out.merge(query_on_loop<Metrics>(*agent.rt,
                                       [node] { return node->metrics(); }));
    }
  }
  return out;
}

sim::Simulator* Cluster::simulator() { return impl_->sim.get(); }

// ---------------------------------------------------------------------------
// ClusterBuilder

ClusterBuilder& ClusterBuilder::size(int num_nodes) {
  size_ = num_nodes;
  return *this;
}

ClusterBuilder& ClusterBuilder::config(const swim::Config& cfg) {
  config_ = cfg;
  return *this;
}

ClusterBuilder& ClusterBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

ClusterBuilder& ClusterBuilder::backend(Cluster::Backend b) {
  backend_ = b;
  return *this;
}

ClusterBuilder& ClusterBuilder::network(const sim::NetworkParams& params) {
  sim_params_.network = params;
  return *this;
}

ClusterBuilder& ClusterBuilder::msg_proc_cost(Duration cost) {
  sim_params_.msg_proc_cost = cost;
  return *this;
}

ClusterBuilder& ClusterBuilder::recv_buffer_bytes(std::size_t bytes) {
  sim_params_.recv_buffer_bytes = bytes;
  return *this;
}

ClusterBuilder& ClusterBuilder::record_failures_only(bool /*on*/) {
  return *this;
}

ClusterBuilder& ClusterBuilder::membership(std::string spec) {
  sim_params_.membership = std::move(spec);
  return *this;
}

std::unique_ptr<Cluster> ClusterBuilder::build() const {
  if (size_ < 1) {
    throw std::invalid_argument(
        "ClusterBuilder: size must be >= 1, got " + std::to_string(size_) +
        " — call .size(n) with the number of member agents");
  }
  if (backend_ == Cluster::Backend::kUdp && size_ > 256) {
    throw std::invalid_argument(
        "ClusterBuilder: the UDP backend spawns one loop thread per node; " +
        std::to_string(size_) +
        " nodes is above the supported 256 — use the sim backend for large "
        "clusters");
  }
  if (backend_ == Cluster::Backend::kUdp && sim_params_.membership != "swim") {
    throw std::invalid_argument(
        "ClusterBuilder: the UDP backend only runs the swim membership "
        "backend (got '" +
        sim_params_.membership + "') — use the sim backend");
  }

  auto impl = std::make_unique<Cluster::Impl>();
  impl->backend = backend_;
  impl->size = size_;

  if (backend_ == Cluster::Backend::kSim) {
    sim::SimParams params = sim_params_;
    params.seed = seed_;
    impl->sim = std::make_unique<sim::Simulator>(size_, config_, params);
    return std::unique_ptr<Cluster>(new Cluster(std::move(impl)));
  }

  impl->agents.reserve(static_cast<std::size_t>(size_));
  impl->forwarders.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    Cluster::Impl::UdpAgent agent;
    agent.rt = std::make_unique<net::UdpRuntime>(
        0, seed_ + static_cast<std::uint64_t>(i));
    agent.node = std::make_unique<swim::Node>(
        "node-" + std::to_string(i), agent.rt->local_address(), config_,
        *agent.rt);
    agent.node->set_observer(&impl->forwarders.emplace_back(impl.get(), i));
    agent.rt->start(agent.node.get());
    impl->agents.push_back(std::move(agent));
  }
  return std::unique_ptr<Cluster>(new Cluster(std::move(impl)));
}

}  // namespace lifeguard
