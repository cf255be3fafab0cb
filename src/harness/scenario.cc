#include "harness/scenario.h"

#include <sstream>
#include <string_view>
#include <utility>

#include "check/invariant.h"
#include "check/tap.h"
#include "cluster/cluster.h"
#include "fault/injector.h"
#include "harness/accounting.h"
#include "harness/scenariofile.h"
#include "membership/backend.h"
#include "obs/sampler.h"
#include "sim/simulator.h"

namespace lifeguard::harness {

// ---------------------------------------------------------------------------
// Validation

namespace {

std::string secs(Duration d) {
  std::ostringstream os;
  os << d.seconds() << " s";
  return os.str();
}

}  // namespace

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  auto fail = [&errors](const std::string& msg) { errors.push_back(msg); };

  if (name.empty()) {
    fail("name must be non-empty — it is the registry key and the "
         "--scenario identifier");
  }
  if (cluster_size < 2) {
    fail("cluster_size (" + std::to_string(cluster_size) +
         ") must be >= 2 — a failure detector needs at least one peer to "
         "probe");
  }
  if (cluster_size > 4096) {
    fail("cluster_size (" + std::to_string(cluster_size) +
         ") is above the supported 4096 — the simulator allocates per-node "
         "state eagerly; shard the experiment instead");
  }
  if (quiesce.is_negative()) {
    fail("quiesce (" + secs(quiesce) + ") must be >= 0");
  }
  if (run_length <= Duration{0}) {
    fail("run_length (" + secs(run_length) +
         ") must be > 0 — it is the observation window after the quiesce");
  }
  if (msg_proc_cost.is_negative()) {
    fail("msg_proc_cost (" + secs(msg_proc_cost) + ") must be >= 0");
  }
  if (metrics_interval.is_negative()) {
    fail("metrics_interval (" + secs(metrics_interval) +
         ") must be >= 0 — zero disables telemetry sampling");
  }
  if (network.udp_loss < 0.0 || network.udp_loss > 1.0) {
    fail("network.udp_loss (" + std::to_string(network.udp_loss) +
         ") must be a probability in [0, 1]");
  }
  if (network.latency_min.is_negative() ||
      network.latency_min > network.latency_max) {
    fail("network latency range [" + secs(network.latency_min) + ", " +
         secs(network.latency_max) +
         "] must satisfy 0 <= latency_min <= latency_max");
  }

  for (const std::string& e : config.validate()) fail("config." + e);
  for (std::string& e : checks.validate()) fail(std::move(e));

  {
    std::string spec_error;
    if (!membership::parse_spec(membership, &spec_error)) {
      fail("membership '" + membership + "': " + spec_error);
    }
  }

  for (std::string& e : timeline.validate(cluster_size)) fail(std::move(e));
  return errors;
}

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string out = "invalid scenario:";
  for (const auto& e : errors) out += "\n  - " + e;
  return out;
}

}  // namespace

ScenarioError::ScenarioError(std::vector<std::string> errors)
    : std::runtime_error(join_errors(errors)), errors_(std::move(errors)) {}

// ---------------------------------------------------------------------------
// Engine

RunResult run(const Scenario& s, const std::vector<check::TraceSink*>& sinks) {
  if (auto errors = s.validate(); !errors.empty()) {
    throw ScenarioError(std::move(errors));
  }

  auto cluster = ClusterBuilder()
                     .size(s.cluster_size)
                     .config(s.config)
                     .seed(s.seed)
                     .network(s.network)
                     .msg_proc_cost(s.msg_proc_cost)
                     .recv_buffer_bytes(s.recv_buffer_bytes)
                     .membership(s.membership)
                     .build();
  sim::Simulator& sim = *cluster->simulator();

  // The sinks observe the whole run (including the quiesce — a trace
  // replays from virtual time zero), so the tap attaches before start().
  // The failure accounting rides the same stream and counts from the
  // injection on; the series collector builds RunResult::series from the
  // sampler's records. Observers never perturb the run: no Rng draws, no
  // mutation.
  FailureAccounting accounting(s.cluster_size);
  std::optional<check::Checker> checker;
  obs::SeriesCollector series;
  std::vector<check::TraceSink*> all_sinks = sinks;
  all_sinks.push_back(&accounting);
  if (s.checks.enabled) {
    checker.emplace(s.checks, s.config, s.cluster_size, s.membership);
    checker->bind(&sim);
    all_sinks.push_back(&*checker);
  }

  // Telemetry snapshots (obs::Sampler): scheduled before start() so the first
  // tick lands exactly one interval into virtual time — a replayed run's
  // sampler starts the same way, keeping the recorded series bit-identical.
  std::optional<obs::Sampler> sampler;
  if (s.metrics_interval > Duration{0}) {
    all_sinks.push_back(&series);
    sampler.emplace(sim, s.metrics_interval);
    sampler->start();
  }
  const check::EventTap tap(sim, all_sinks);

  cluster->start();
  cluster->run_for(s.quiesce);

  // Lower the timeline onto the event queue and run until every entry has
  // completed and settled.
  const TimePoint start = sim.now();
  const fault::Schedule outcome =
      fault::FaultInjector().inject(sim, s.timeline, start, s.run_length);
  accounting.begin(start, outcome.victims);
  sim.run_until(start + outcome.total_run);

  RunResult out;
  out.scenario_name = s.name;
  out.cluster_size = s.cluster_size;
  out.victims = outcome.victims;
  accounting.fill(out);
  out.metrics = sim.aggregate_metrics();
  out.msgs_sent = out.metrics.counter_value("net.msgs_sent");
  out.bytes_sent = out.metrics.counter_value("net.bytes_sent");
  out.series = series.take();
  if (checker) {
    checker->finish(sim.now());
    out.checks = checker->report();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry

void ScenarioRegistry::add(Scenario s) {
  if (auto errors = s.validate(); !errors.empty()) {
    throw ScenarioError(std::move(errors));
  }
  if (find(s.name) != nullptr) {
    throw ScenarioError({"a scenario named '" + s.name +
                         "' is already registered — scenario names are "
                         "unique registry keys"});
  }
  scenarios_.push_back(std::move(s));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  return out;
}

namespace {

// Each committed scenario file's stem and text, in catalog order;
// CMakeLists.txt generates the entries from scenarios/*.json.
constexpr std::pair<std::string_view, std::string_view> kScenarioFiles[] = {
#include "scenario_catalog.inc"
};

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  // Meyers singleton: C++11 guarantees race-free one-time initialization,
  // and the registry is immutable afterwards — safe to call from concurrent
  // campaign workers.
  static const ScenarioRegistry reg = [] {
    ScenarioRegistry r;
    for (const auto& [stem, text] : kScenarioFiles) {
      std::string error;
      auto s = ScenarioFile::from_json(std::string(text), error);
      if (s && s->name != stem) {
        error = "name '" + s->name + "' is not the filename stem '" +
                std::string(stem) + "'";
      } else if (s && r.find(stem) != nullptr) {
        error = "listed twice in the catalog order (CMakeLists.txt)";
      }
      if (!s || !error.empty()) {
        throw ScenarioError(
            {"scenarios/" + std::string(stem) + ".json: " + error});
      }
      r.add(std::move(*s));
    }
    return r;
  }();
  return reg;
}

}  // namespace lifeguard::harness
