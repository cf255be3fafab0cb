#include "membership/backend.h"

#include <charconv>
#include <memory>
#include <utility>

#include "membership/central.h"
#include "swim/node.h"

namespace lifeguard::membership {

std::string base_name(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  return std::string(spec.substr(0, colon));
}

std::optional<BackendSpec> parse_spec(std::string_view spec,
                                      std::string* error) {
  const auto fail = [&](std::string why) -> std::optional<BackendSpec> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  BackendSpec out;
  out.spec = std::string(spec);
  out.base = base_name(spec);
  if (BackendRegistry::builtin().find(out.base) == nullptr) {
    return fail("unknown membership backend '" + out.base +
                "' (known: swim, central, static)");
  }
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return out;
  std::string_view params = spec.substr(colon + 1);
  if (out.base == "static") {
    return fail("backend 'static' takes no parameters");
  }
  const std::string known_keys =
      out.base == "central" ? "miss, plant" : "plant";
  if (params.empty()) {
    return fail("empty parameter list after '" + out.base +
                ":' (drop the colon or pass e.g. " +
                (out.base == "central" ? "miss=3" : "plant=drop-refute") +
                ")");
  }
  while (!params.empty()) {
    const std::size_t comma = params.find(',');
    const std::string_view kv = params.substr(0, comma);
    params = comma == std::string_view::npos ? std::string_view{}
                                             : params.substr(comma + 1);
    const std::size_t eq = kv.find('=');
    const std::string_view key = kv.substr(0, eq);
    if (key == "miss" && out.base == "central") {
      if (eq == std::string_view::npos) return fail("miss needs a value");
      const std::string_view val = kv.substr(eq + 1);
      int miss = 0;
      const auto [ptr, ec] =
          std::from_chars(val.data(), val.data() + val.size(), miss);
      if (ec != std::errc{} || ptr != val.data() + val.size() || miss < 1 ||
          miss > 100) {
        return fail("miss must be an integer in [1, 100], got '" +
                    std::string(val) + "'");
      }
      out.miss_threshold = miss;
    } else if (key == "plant") {
      if (eq == std::string_view::npos) return fail("plant needs a value");
      const std::string_view val = kv.substr(eq + 1);
      const std::string_view known =
          out.base == "swim" ? "drop-refute" : "refail";
      if (val != known) {
        return fail("unknown " + out.base + " plant '" + std::string(val) +
                    "' (known: " + std::string(known) + ")");
      }
      out.plant = std::string(val);
    } else {
      return fail("unknown " + out.base + " parameter '" + std::string(key) +
                  "' (known: " + known_keys + ")");
    }
  }
  return out;
}

namespace {

/// Fixed membership, no detection: every member believes the full roster is
/// alive forever. The control backend — its false-positive count and message
/// load are zero by construction, so it anchors the noise floor in
/// comparative campaigns.
class StaticAgent final : public Agent {
 public:
  explicit StaticAgent(const AgentParams& params)
      : name_(params.name),
        addr_(params.address),
        index_(params.index),
        cluster_size_(params.cluster_size) {}

  void start() override {
    if (running_) return;
    running_ = true;
    if (observer_ == nullptr) return;
    // The roster is configuration, not protocol: report every peer joined
    // up front so traces and views have the full fixed membership.
    for (int i = 0; i < cluster_size_; ++i) {
      if (i == index_) continue;
      const std::string member = "node-" + std::to_string(i);
      report({.kind = check::TraceEventKind::kJoin,
              .member = member,
              .origin = name_});
    }
  }
  void join(const std::vector<Address>&) override {}
  void leave() override {}
  void stop() override { running_ = false; }
  bool running() const override { return running_; }
  void on_packet(const Address&, std::span<const std::uint8_t> payload,
                 Channel) override {
    metrics_.counter("net.msgs_received").add();
    metrics_.counter("net.bytes_received")
        .add(static_cast<std::int64_t>(payload.size()));
  }
  void on_unblocked() override {}
  const std::string& name() const override { return name_; }
  const Address& address() const override { return addr_; }
  int active_members() const override { return cluster_size_; }
  std::vector<std::string> active_view() const override {
    std::vector<std::string> out;
    out.reserve(static_cast<std::size_t>(cluster_size_));
    for (int i = 0; i < cluster_size_; ++i) {
      out.push_back("node-" + std::to_string(i));
    }
    return out;
  }
  Metrics& metrics() override { return metrics_; }
  const Metrics& metrics() const override { return metrics_; }

 private:
  std::string name_;
  Address addr_;
  int index_ = 0;
  int cluster_size_ = 0;
  Metrics metrics_;
  bool running_ = false;
};

class SwimBackend final : public Backend {
 public:
  const std::string& name() const override {
    static const std::string n = "swim";
    return n;
  }
  const std::string& summary() const override {
    static const std::string s =
        "SWIM randomized probing + Lifeguard local health (the paper's "
        "protocol)";
    return s;
  }
  bool detects_failures() const override { return true; }
  std::unique_ptr<Agent> create(const AgentParams& params,
                                Runtime& rt) const override {
    // Argument-for-argument the pre-refactor direct construction: the swim
    // backend must stay golden-seed bit-parity with it (no extra Rng draws,
    // no reordering). The plant flag is set after construction — a no-op
    // unless the spec asks for it.
    auto node = std::make_unique<swim::Node>(params.name, params.address,
                                             params.config, rt);
    if (params.spec.plant == "drop-refute") node->plant_drop_refute(true);
    return node;
  }
};

class CentralBackend final : public Backend {
 public:
  const std::string& name() const override {
    static const std::string n = "central";
    return n;
  }
  const std::string& summary() const override {
    static const std::string s =
        "coordinator-based heartbeats (node 0 acks and pushes views; "
        "miss-threshold detection)";
    return s;
  }
  bool detects_failures() const override { return true; }
  std::unique_ptr<Agent> create(const AgentParams& params,
                                Runtime& rt) const override {
    return std::make_unique<CentralAgent>(params, rt);
  }
};

class StaticBackend final : public Backend {
 public:
  const std::string& name() const override {
    static const std::string n = "static";
    return n;
  }
  const std::string& summary() const override {
    static const std::string s =
        "fixed roster, no detection (control / noise floor)";
    return s;
  }
  bool detects_failures() const override { return false; }
  std::unique_ptr<Agent> create(const AgentParams& params,
                                Runtime& /*rt*/) const override {
    return std::make_unique<StaticAgent>(params);
  }
};

}  // namespace

const BackendRegistry& BackendRegistry::builtin() {
  static const BackendRegistry* reg = [] {
    static const SwimBackend swim_backend;
    static const CentralBackend central_backend;
    static const StaticBackend static_backend;
    auto* r = new BackendRegistry();
    r->backends_ = {&swim_backend, &central_backend, &static_backend};
    return r;
  }();
  return *reg;
}

const Backend* BackendRegistry::find(std::string_view name_or_spec) const {
  const std::string base = base_name(name_or_spec);
  for (const Backend* b : backends_) {
    if (b->name() == base) return b;
  }
  return nullptr;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const Backend* b : backends_) out.push_back(b->name());
  return out;
}

}  // namespace lifeguard::membership
