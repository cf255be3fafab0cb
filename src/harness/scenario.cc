#include "harness/scenario.h"

#include <sstream>
#include <utility>

#include "check/invariant.h"
#include "check/tap.h"
#include "cluster/cluster.h"
#include "fault/injector.h"
#include "harness/accounting.h"
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

ScenarioRegistry make_builtin() {
  ScenarioRegistry reg;
  auto base = [](std::string name, std::string summary, std::string ref) {
    Scenario s;
    s.name = std::move(name);
    s.summary = std::move(summary);
    s.paper_ref = std::move(ref);
    return s;
  };

  // ---- the paper's evaluation setups ----
  {
    Scenario s = base("fig1-cpu-exhaustion",
                      "100 members, 4 under stochastic CPU starvation for "
                      "5 minutes; count FP and FP- declarations",
                      "Fig. 1");
    s.cluster_size = 100;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(300), fault::Fault::stressed(),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(300);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("fig2-total-false-positives",
                      "Interval anomalies (C=8, D=16.384 s, I=4 ms) under "
                      "the SWIM baseline; total FP events",
                      "Fig. 2");
    s.cluster_size = 128;
    s.config = swim::Config::swim_baseline();
    s.timeline.add(sec(0), sec(120),
                   fault::Fault::interval_block(msec(16384), msec(4)),
                   fault::VictimSelector::uniform(8));
    s.run_length = sec(120);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("fig3-fp-at-healthy",
                      "Same interval workload under full Lifeguard; FP- "
                      "events at healthy members",
                      "Fig. 3");
    s.cluster_size = 128;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(120),
                   fault::Fault::interval_block(msec(16384), msec(4)),
                   fault::VictimSelector::uniform(8));
    s.run_length = sec(120);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("table4-false-positives",
                      "Representative interval grid point (C=4, D=8 s, "
                      "I=64 ms) for the FP aggregation",
                      "Table IV");
    s.cluster_size = 128;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(120),
                   fault::Fault::interval_block(sec(8), msec(64)),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(120);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("table5-latency",
                      "Threshold anomaly (C=4, D=16 s): first-detection and "
                      "full-dissemination latency",
                      "Table V");
    s.cluster_size = 128;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(16), fault::Fault::block(),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(70);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("table6-message-load",
                      "Low-intensity interval workload; compound message "
                      "and byte counts",
                      "Table VI");
    s.cluster_size = 128;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(120),
                   fault::Fault::interval_block(sec(8), msec(64)),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(120);
    s.seed = 2;
    reg.add(std::move(s));
  }
  {
    Scenario s = base("table7-alpha-beta",
                      "Aggressive suspicion tuning (alpha=2, beta=6): the "
                      "latency/FP trade-off point",
                      "Table VII");
    s.cluster_size = 128;
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_alpha = 2.0;
    cfg.suspicion_beta = 6.0;
    s.config = cfg;
    s.timeline.add(sec(0), sec(16), fault::Fault::block(),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(70);
    reg.add(std::move(s));
  }

  // ---- beyond the paper ----
  {
    Scenario s = base("steady-state",
                      "Healthy 64-member cluster for one minute; baseline "
                      "message load and zero-FP check",
                      "");
    s.cluster_size = 64;
    s.config = swim::Config::lifeguard();
    s.run_length = sec(60);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("partition-split-heal",
                      "8 of 16 members split off for 60 s, then the "
                      "partition heals and the views re-merge",
                      "");
    s.cluster_size = 16;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(60), fault::Fault::partition(),
                   fault::VictimSelector::uniform(8));
    s.run_length = sec(150);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("flapping-overload",
                      "4 of 64 members flap with unsynchronized 16 s stalls "
                      "and 5 ms open windows for two minutes",
                      "");
    s.cluster_size = 64;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(120), fault::Fault::flapping(sec(16), msec(5)),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(120);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("churn-rolling-restarts",
                      "4 of 32 members crash and rejoin in staggered "
                      "20 s-down / 40 s-up cycles for two minutes",
                      "");
    s.cluster_size = 32;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(120), fault::Fault::churn(sec(20), sec(40)),
                   fault::VictimSelector::uniform(4));
    s.run_length = sec(120);
    reg.add(std::move(s));
  }

  // ---- composed fault timelines ----
  {
    Scenario s = base("partition-under-stress",
                      "2 members CPU-starved the whole minute while 5 others "
                      "split off mid-run and re-merge 20 s later",
                      "");
    s.cluster_size = 16;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(60), fault::Fault::stressed(),
                   fault::VictimSelector::uniform(2));
    s.timeline.add(sec(15), sec(20), fault::Fault::partition(),
                   fault::VictimSelector::uniform(5));
    s.run_length = sec(60);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("lossy-flapping",
                      "3 members flap (8 s stalls, 100 ms windows) while a "
                      "quarter of the cluster sits behind 30% lossy links",
                      "");
    s.cluster_size = 32;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(90), fault::Fault::flapping(sec(8), msec(100)),
                   fault::VictimSelector::uniform(3));
    s.timeline.add(sec(0), sec(90), fault::Fault::link_loss(0.3, 0.3),
                   fault::VictimSelector::fraction_of(0.25));
    s.run_length = sec(90);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("churn-after-heal",
                      "a 5-member island splits off for 30 s; 10 s after the "
                      "heal, 3 members churn in 10 s-down / 20 s-up cycles",
                      "");
    s.cluster_size = 16;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(30), fault::Fault::partition(),
                   fault::VictimSelector::uniform(5));
    s.timeline.add(sec(40), sec(50), fault::Fault::churn(sec(10), sec(20)),
                   fault::VictimSelector::uniform(3));
    s.run_length = sec(100);
    reg.add(std::move(s));
  }
  {
    Scenario s = base("packet-chaos",
                      "half the cluster behind jittery +30 ms links while 6 "
                      "members duplicate and 6 reorder their UDP traffic",
                      "");
    s.cluster_size = 24;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(60), fault::Fault::latency(msec(30), msec(20)),
                   fault::VictimSelector::fraction_of(0.5));
    s.timeline.add(sec(10), sec(40), fault::Fault::duplicate(0.25),
                   fault::VictimSelector::uniform(6));
    s.timeline.add(sec(20), sec(30), fault::Fault::reorder(0.3, msec(200)),
                   fault::VictimSelector::uniform(6));
    s.run_length = sec(60);
    reg.add(std::move(s));
  }

  // ---- membership-backend scenarios (src/membership) ----
  // The registry's checked entries for the non-swim backends: the central
  // heartbeat detector under member and coordinator failures, and the static
  // no-detection control. All run the full invariant suite — the SWIM-only
  // invariants auto-disable, the generic ones (legal-transitions,
  // convergence, no-send-from-crashed, partition-containment) stay on.
  {
    Scenario s = base("central-crash-detect",
                      "central heartbeat detector: 3 of 16 members blocked "
                      "for 20 s; the coordinator declares them failed and "
                      "re-admits them on recovery",
                      "");
    s.cluster_size = 16;
    s.config = swim::Config::lifeguard();
    s.membership = "central";
    s.timeline.add(sec(10), sec(20), fault::Fault::block(),
                   fault::VictimSelector::nodes({3, 7, 11}));
    s.run_length = sec(60);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("central-coordinator-crash",
                      "the central detector's single point of failure: the "
                      "coordinator (node 0) blocked for 15 s; members reach "
                      "their miss threshold and declare it failed",
                      "");
    s.cluster_size = 16;
    s.config = swim::Config::lifeguard();
    s.membership = "central:miss=4";
    s.timeline.add(sec(10), sec(15), fault::Fault::block(),
                   fault::VictimSelector::nodes({0}));
    s.run_length = sec(60);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("static-floor",
                      "static membership control: 2 members blocked for 10 s "
                      "with no detector running — the zero-FP, zero-message "
                      "noise floor for backend comparisons",
                      "");
    s.cluster_size = 16;
    s.config = swim::Config::lifeguard();
    s.membership = "static";
    s.timeline.add(sec(10), sec(10), fault::Fault::block(),
                   fault::VictimSelector::nodes({5, 9}));
    s.run_length = sec(30);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }
  // ---- the live tier (src/live): real processes, real UDP on loopback ----
  // Every scenario here runs on both backends (the registry validates them
  // like any other entry, and the parity smoke test exercises that), but
  // their shape is chosen for wall-clock viability: small clusters, fast
  // protocol intervals, explicit victim sets so sim and live agree on who is
  // faulted, and a generous timeout_slack because real schedulers jitter.
  auto live_config = [] {
    swim::Config c = swim::Config::lifeguard();
    c.probe_interval = msec(200);
    c.probe_timeout = msec(100);
    c.gossip_interval = msec(100);
    c.push_pull_interval = sec(5);
    c.reconnect_interval = sec(3);
    return c;
  };
  auto live_checks = [] {
    check::Spec spec = check::Spec::all();
    spec.timeout_slack = 0.25;
    spec.convergence_settle = sec(6);
    return spec;
  };
  {
    Scenario s = base("live-healthy",
                      "8 real processes over loopback UDP, no faults: join "
                      "storm, convergence and steady gossip under a wall "
                      "clock",
                      "");
    s.cluster_size = 8;
    s.config = live_config();
    s.quiesce = sec(5);
    s.run_length = sec(8);
    s.checks = live_checks();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("live-lossy",
                      "8 live members; two sit behind 25% lossy links (both "
                      "directions) applied by the userspace netem shim",
                      "");
    s.cluster_size = 8;
    s.config = live_config();
    s.timeline.add(sec(0), sec(10), fault::Fault::link_loss(0.25, 0.25),
                   fault::VictimSelector::nodes({2, 5}));
    s.quiesce = sec(5);
    s.run_length = sec(10);
    s.checks = live_checks();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("live-crash-restart",
                      "a live member is SIGKILLed and respawned on its old "
                      "port in 4 s-down / 3 s-up cycles",
                      "");
    s.cluster_size = 8;
    s.config = live_config();
    // Cycle (4s + 3s) <= the 8s span, so the random phase cannot push the
    // first kill past the span — every run really crashes the victim.
    s.timeline.add(sec(0), sec(8), fault::Fault::churn(sec(4), sec(3)),
                   fault::VictimSelector::nodes({3}));
    s.quiesce = sec(5);
    s.run_length = sec(12);
    s.checks = live_checks();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("live-partition-under-stress",
                      "one live member SIGSTOPped in random bursts while a "
                      "3-member island is blocked off for 4 s mid-run",
                      "");
    s.cluster_size = 10;
    s.config = live_config();
    {
      fault::StressParams stress;
      stress.block_min = msec(500);
      stress.block_max = sec(2);
      stress.run_min = msec(100);
      stress.run_max = msec(500);
      s.timeline.add(sec(0), sec(8), fault::Fault::stressed(stress),
                     fault::VictimSelector::nodes({7}));
    }
    s.timeline.add(sec(2), sec(4), fault::Fault::partition(),
                   fault::VictimSelector::island(3, 4));
    s.quiesce = sec(5);
    s.run_length = sec(10);
    s.checks = live_checks();
    reg.add(std::move(s));
  }

  // ---- the large-cluster tier (enabled by the perf:: optimization pass) --
  // Protocol invariants are on by default for this tier: at these sizes the
  // interesting failures are emergent (join storms, dissemination backlogs),
  // and a metric assertion alone would miss a mid-run safety violation.
  // Budget note: these run minutes of wall time on one core (the 4k
  // scenario tens of minutes) — CI runs them out of band, not in ctest.
  {
    Scenario s = base("big-healthy-2k",
                      "2000-member healthy cluster: the large-cluster "
                      "baseline (join storm, convergence, steady gossip)",
                      "");
    s.cluster_size = 2000;
    s.config = swim::Config::lifeguard();
    s.quiesce = sec(30);
    s.run_length = sec(20);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("big-flapping-1k",
                      "8 of 1000 members flap with 25 s stalls and 50 ms "
                      "open windows (past the n=1000 suspicion floor of "
                      "alpha*log10(n) ~ 15 s, so victims are detected)",
                      "");
    s.cluster_size = 1000;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(50), fault::Fault::flapping(sec(25), msec(50)),
                   fault::VictimSelector::uniform(8));
    s.quiesce = sec(25);
    s.run_length = sec(50);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("big-churn-2k",
                      "4 of 2000 members crash and rejoin in 15 s-down / "
                      "30 s-up cycles",
                      "");
    s.cluster_size = 2000;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(45), fault::Fault::churn(sec(15), sec(30)),
                   fault::VictimSelector::uniform(4));
    s.quiesce = sec(30);
    s.run_length = sec(45);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }
  {
    Scenario s = base("big-partition-4k",
                      "a 48-member island splits from a 4000-member cluster "
                      "for 30 s, then heals",
                      "");
    s.cluster_size = 4000;
    s.config = swim::Config::lifeguard();
    s.timeline.add(sec(0), sec(30), fault::Fault::partition(),
                   fault::VictimSelector::uniform(48));
    s.quiesce = sec(40);
    s.run_length = sec(60);
    s.checks = check::Spec::all();
    reg.add(std::move(s));
  }

  return reg;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  // Meyers singleton: C++11 guarantees race-free one-time initialization,
  // and the registry is immutable afterwards — safe to call from concurrent
  // campaign workers.
  static const ScenarioRegistry reg = make_builtin();
  return reg;
}

}  // namespace lifeguard::harness
