// lgbench — the measuring half of the end-to-end benchmark (run.py is the
// other half: it builds this program, generates the scenario files it reads,
// checks its outputs and prints the result line).
//
//   lgbench setup --workload W --inputs DIR
//       Load + validate the generated inputs and build the workload's
//       cluster, campaign or engine, then exit. run.py times whole spawns of
//       this mode: setup_s is everything a user pays before the first
//       simulated event, process start included.
//   lgbench run --workload W --inputs DIR --seconds S [REFERENCES]
//       The timed closed loop. Attaches no TraceSink anywhere: any sink
//       turns on the simulator's tap path.
//   lgbench trace --workload W --inputs DIR [REFERENCES]
//       The per-layer run: one untraced and one traced unit of the workload
//       (their difference is the tracing overhead) plus layer probes that
//       time public entry points on inputs shaped like the workload's.
//
// REFERENCES are --coverage-ref FILE (the committed fuzz coverage.json) and
// --ref CONFIG=eight totals (paper-grid's recorded envelope, see
// gate_totals). Output is one JSON object on stdout: the metrics README.md
// defines, attempted/failed/failures, per-trial digests for run.py's parity
// count and, from paper-grid, its per-config totals for re-recording.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/coverage.h"
#include "check/events.h"
#include "check/tap.h"
#include "cluster/cluster.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "fuzz/engine.h"
#include "fuzz/mutator.h"
#include "harness/campaign.h"
#include "harness/gate.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenariofile.h"
#include "proto/broadcast.h"
#include "proto/wire.h"
#include "swim/membership.h"

namespace {

using namespace lifeguard;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set of this process in kB (VmHWM).
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

// FNV-1a over the bytes of each folded value: the bit-for-bit identity of a
// trial's statistics, compared against reference.json by run.py.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::vector<double>& v) {
    add(v.size());
    for (double x : v) add(x);
  }
};

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The output document: named numbers plus a few string lists.
struct Output {
  std::vector<std::pair<std::string, double>> nums;
  std::map<std::string, std::vector<std::string>> lists;
  void put(const std::string& k, double v) { nums.emplace_back(k, v); }
  void add(const std::string& list, std::string s) {
    lists[list].push_back(std::move(s));
  }
  void print() const {
    std::string out = "{";
    char buf[64];
    for (const auto& [k, v] : nums) {
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
      out += "\"" + k + "\": " + buf + ", ";
    }
    for (const auto& [k, items] : lists) {
      out += "\"" + k + "\": [";
      for (std::size_t i = 0; i < items.size(); ++i) {
        std::string esc;
        for (char c : items[i]) {
          if (c == '"' || c == '\\') esc += '\\';
          esc += (c == '\n' || c == '\t') ? ' ' : c;
        }
        out += (i ? ", \"" : "\"") + esc + "\"";
      }
      out += "], ";
    }
    if (out.size() > 1) out.resize(out.size() - 2);
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }
};

// ---------------------------------------------------------------------------
// Inputs

struct Args {
  std::string mode, workload, inputs, coverage_ref;
  double seconds = 10.0;
  /// paper-grid reference envelope per config: the lowest fp, fp-, msgs,
  /// bytes totals over the recorded seeds, then the highest.
  std::map<std::string, std::vector<double>> refs;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "lgbench: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<harness::Scenario> load_inputs(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  if (ec) die("cannot list inputs in '" + dir + "': " + ec.message());
  std::sort(files.begin(), files.end());
  if (files.empty()) die("no scenario files in '" + dir + "'");
  std::vector<harness::Scenario> out;
  for (const auto& f : files) {
    std::string error;
    auto s = harness::ScenarioFile::load(f.string(), error);
    if (!s) die(f.string() + ": " + error);
    out.push_back(std::move(*s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload constants (the inputs carry the scenarios; these are the loop)

constexpr Duration kSlice = msec(250);      // virtual-time slice of run_for
constexpr int kGridReps = 2;                // paper-grid repetitions
constexpr int kPoolJobs = 2;                // paper-grid / fuzz-corpus workers
constexpr int kFuzzTrials = 2000;           // committed-corpus budget
constexpr int kFuzzGeneration = 25;
constexpr std::uint64_t kJoinSalt = 0x6a6f696e;  // "join"

// ---------------------------------------------------------------------------
// Cold-start trials (scale-join's trial; every workload's shape probe)

/// Counts TraceEvents; with `datagrams` also asks for routed datagrams.
class CountingSink final : public check::TraceSink {
 public:
  explicit CountingSink(bool datagrams = false, bool keep = false)
      : datagrams_(datagrams), keep_(keep) {}
  void on_trace_event(const check::TraceEvent& e) override {
    if (e.kind == check::TraceEventKind::kDatagram) {
      ++datagram_events;
      return;
    }
    ++events;
    if (keep_) kept.push_back(e);
  }
  bool wants_datagrams() const override { return datagrams_; }
  std::int64_t events = 0;
  std::int64_t datagram_events = 0;
  std::vector<check::TraceEvent> kept;

 private:
  bool datagrams_;
  bool keep_;
};

struct JoinTrial {
  std::uint64_t seed = 0;
  double build_s = 0, wall_s = 0, converge_wall_s = 0, converge_vs = 0,
         vs = 0, fold_s = 0;
  bool converged = false, held = false;
  std::uint64_t events = 0;
  std::int64_t datagrams = 0;
  // Per-slice instrumentation (traced only).
  double boot_host_s = 0, steady_host_s = 0;
  std::uint64_t boot_events = 0, steady_events = 0;
  double pending_peak_sum = 0, pending_peak_node = 0;
  Metrics metrics;

  std::int64_t counter(const char* name) const {
    return metrics.counter_value(name);
  }
  std::string digest() const {
    Digest d;
    d.add(seed);
    d.add(converge_vs);
    d.add(vs);
    d.add(events);
    d.add(datagrams);
    d.add(counter("net.msgs_sent"));
    d.add(counter("net.bytes_sent"));
    d.add(counter("swim.dead_declared"));
    return hex(d.h);
  }
};

std::unique_ptr<Cluster> build_cluster(const harness::Scenario& s,
                                       std::uint64_t seed) {
  return ClusterBuilder()
      .size(s.cluster_size)
      .config(s.config)
      .seed(seed)
      .network(s.network)
      .msg_proc_cost(s.msg_proc_cost)
      .recv_buffer_bytes(s.recv_buffer_bytes)
      .record_failures_only(true)
      .membership(s.membership)
      .build();
}

/// Cold start -> converged view (within `span`) -> steady until `horizon`
/// (both from the start), in kSlice steps. A fixed horizon keeps a late
/// straggler from lengthening the trial. `traced` adds per-slice timing and
/// broadcast-queue sampling; `sink` (traced only) observes the merged event
/// stream.
JoinTrial join_trial(const harness::Scenario& s, std::uint64_t seed,
                     Duration span, Duration horizon, bool traced,
                     check::TraceSink* sink = nullptr) {
  JoinTrial t;
  t.seed = seed;
  const auto t0 = Clock::now();
  auto cluster = build_cluster(s, seed);
  sim::Simulator& sim = *cluster->simulator();
  std::optional<check::EventTap> tap;
  if (sink != nullptr) tap.emplace(sim, std::vector<check::TraceSink*>{sink});
  cluster->start();
  t.build_s = since(t0);

  const auto t_start = Clock::now();
  const TimePoint origin = sim.now();
  auto sample_queues = [&] {
    double total = 0, peak = 0;
    for (int i = 0; i < sim.size(); ++i) {
      const auto p =
          static_cast<double>(sim.agent(i).pending_broadcast_count());
      total += p;
      peak = std::max(peak, p);
    }
    t.pending_peak_sum = std::max(t.pending_peak_sum, total);
    t.pending_peak_node = std::max(t.pending_peak_node, peak);
  };
  auto slice = [&](double& host, std::uint64_t& events) {
    if (!traced) {
      cluster->run_for(kSlice);
      return;
    }
    const std::uint64_t e0 = sim.queue().executed();
    const auto h0 = Clock::now();
    cluster->run_for(kSlice);
    host += since(h0);
    events += sim.queue().executed() - e0;
    sample_queues();
  };
  while (sim.now() - origin < span) {
    slice(t.boot_host_s, t.boot_events);
    if (cluster->converged()) {
      t.converged = true;
      t.converge_wall_s = since(t_start);
      t.converge_vs = (sim.now() - origin).seconds();
      break;
    }
  }
  if (t.converged) {
    while (sim.now() < origin + horizon) {
      slice(t.steady_host_s, t.steady_events);
    }
    t.held = cluster->converged();
  }
  t.vs = (sim.now() - origin).seconds();
  t.events = sim.queue().executed();
  t.datagrams = sim.datagrams_routed();
  const auto tf = Clock::now();
  t.metrics = cluster->aggregate_metrics();
  t.fold_s = since(tf);
  t.wall_s = since(t0);
  return t;
}

std::string join_failure(const JoinTrial& t, Duration span) {
  if (!t.converged) {
    return "seed " + std::to_string(t.seed) + ": no converged view within " +
           std::to_string(span.seconds()) + " vs";
  }
  if (!t.held) return "seed " + std::to_string(t.seed) + ": view lost";
  if (t.counter("swim.dead_declared") != 0) {
    return "seed " + std::to_string(t.seed) + ": " +
           std::to_string(t.counter("swim.dead_declared")) +
           " dead declared in a healthy cluster";
  }
  return "";
}

// ---------------------------------------------------------------------------
// paper-grid: the Campaign

thread_local Clock::time_point tl_trial_start;

struct GridTrial {
  int index = 0, point = 0;
  std::string config;
  double vs = 0;
  std::int64_t fp = 0, fph = 0, msgs = 0, bytes = 0;
  std::map<std::string, std::int64_t> counters;
  std::string digest;
};

struct GridRun {
  double wall_s = 0, fold_s = 0;
  std::vector<double> trial_walls;
  std::vector<GridTrial> trials;  // trial-index order
};

/// Times each trial (factory call -> progress on the same worker) and keeps
/// the statistics a reporter sees before the engine drops the registry.
class GridReporter final : public harness::Reporter {
 public:
  GridReporter(GridRun& run, const std::vector<harness::GridPoint>& grid)
      : run_(run), grid_(grid) {}
  void progress(int, int) override {
    run_.trial_walls.push_back(since(tl_trial_start));
    last_end = Clock::now();
  }
  void on_trial(const harness::TrialResult& t) override {
    const harness::Scenario& s =
        grid_[static_cast<std::size_t>(t.point_index)].scenario;
    const harness::RunResult& r = t.result;
    GridTrial g;
    g.index = t.trial_index;
    g.point = t.point_index;
    g.config = s.config.table1_name();
    g.vs = (s.quiesce + fault::FaultInjector::plan_total_run(
                            s.effective_timeline(), s.run_length))
               .seconds();
    g.fp = r.fp_events;
    g.fph = r.fp_healthy_events;
    g.msgs = r.msgs_sent;
    g.bytes = r.bytes_sent;
    for (const auto& [name, c] : r.metrics.counters()) {
      if (name.rfind("net.sent.", 0) == 0 || name == "probe.started" ||
          name == "probe.failed" || name == "suspicion.started" ||
          name == "net.msgs_sent" || name == "net.bytes_sent") {
        g.counters[name] = c.value();
      }
    }
    Digest d;
    d.add(t.seed);
    d.add(r.fp_events);
    d.add(r.fp_healthy_events);
    d.add(r.msgs_sent);
    d.add(r.bytes_sent);
    d.add(r.first_detect);
    d.add(r.full_dissem);
    for (int v : r.victims) d.add(v);
    g.digest = hex(d.h);
    run_.trials.push_back(std::move(g));
  }
  Clock::time_point last_end{};

 private:
  GridRun& run_;
  const std::vector<harness::GridPoint>& grid_;
};

/// 24 generated files = 12 anomaly points x {SWIM, Lifeguard}. The two
/// configs of a point share a seed salt, so they see the same schedule.
harness::Campaign grid_campaign(const std::vector<harness::Scenario>& files) {
  harness::Campaign c;
  c.name = "paper-grid";
  c.base = files.front();
  std::vector<harness::AxisPoint> points;
  std::map<std::string, std::uint64_t> salts;
  for (const harness::Scenario& f : files) {
    const std::string key = f.effective_timeline().summary();
    auto it = salts.emplace(key, salts.size() + 1).first;
    points.push_back(
        {f.name, it->second, [f](harness::Scenario& s) { s = f; }});
  }
  c.axes.push_back(harness::Axis::custom("scenario", std::move(points)));
  c.repetitions = kGridReps;
  c.base_seed = files.front().seed;
  c.jobs = kPoolJobs;
  return c;
}

/// One campaign run. `sinks` (traced only) hands each trial its own sink.
GridRun run_grid(harness::Campaign c,
                 std::vector<std::unique_ptr<check::TraceSink>>* sinks) {
  GridRun run;
  const std::vector<harness::GridPoint> grid = harness::expand_grid(c);
  c.trial_sinks = [sinks](const harness::TrialResult& t) {
    tl_trial_start = Clock::now();
    if (sinks == nullptr) return std::vector<check::TraceSink*>{};
    return std::vector<check::TraceSink*>{
        (*sinks)[static_cast<std::size_t>(t.trial_index)].get()};
  };
  GridReporter rep(run, grid);
  const auto t0 = Clock::now();
  harness::run(c, {&rep});
  run.wall_s = since(t0);
  run.fold_s =
      std::chrono::duration<double>(Clock::now() - rep.last_end).count();
  return run;
}

struct ConfigTotals {
  std::int64_t fp = 0, fph = 0, msgs = 0, bytes = 0;
};

std::map<std::string, ConfigTotals> config_totals(const GridRun& run) {
  std::map<std::string, ConfigTotals> out;
  for (const GridTrial& t : run.trials) {
    ConfigTotals& c = out[t.config];
    c.fp += t.fp;
    c.fph += t.fph;
    c.msgs += t.msgs;
    c.bytes += t.bytes;
  }
  return out;
}

harness::RunResult totals_result(const std::vector<double>& v) {
  harness::RunResult r;
  r.fp_events = static_cast<std::int64_t>(v[0]);
  r.fp_healthy_events = static_cast<std::int64_t>(v[1]);
  r.msgs_sent = static_cast<std::int64_t>(v[2]);
  r.bytes_sent = static_cast<std::int64_t>(v[3]);
  return r;
}

/// harness::gate's band policy drawn around the reference envelope: each
/// band runs from the policy's low end at the lowest recorded total to its
/// high end at the highest, so any seed (or a re-golden, which is a new
/// draw) is judged against what the recorded seeds did.
std::vector<std::string> gate_totals(
    const std::map<std::string, ConfigTotals>& obs, const Args& args) {
  std::vector<std::string> failures;
  if (args.refs.empty()) return {"no paper-grid reference (--ref)"};
  for (const auto& [config, ref] : args.refs) {
    auto it = obs.find(config);
    if (it == obs.end()) {
      failures.push_back("config " + config + " missing from the run");
      continue;
    }
    harness::Scenario s;
    s.name = "paper-grid-" + config;
    harness::ScenarioBaseline band = harness::record_baseline(
        s, totals_result({ref.begin(), ref.begin() + 4}));
    const harness::ScenarioBaseline high = harness::record_baseline(
        s, totals_result({ref.begin() + 4, ref.end()}));
    for (std::size_t i = 0; i < band.bands.size(); ++i) {
      band.bands[i].hi = high.bands[i].hi;
    }
    const ConfigTotals& t = it->second;
    const harness::RunResult got = totals_result(
        {static_cast<double>(t.fp), static_cast<double>(t.fph),
         static_cast<double>(t.msgs), static_cast<double>(t.bytes)});
    harness::BaselineSet set;
    set.entries.push_back(std::move(band));
    const harness::GateReport g = harness::gate_run(s, got, set);
    if (!g.passed) failures.push_back(g.describe());
  }
  return failures;
}

// ---------------------------------------------------------------------------
// fuzz-corpus: the Engine

fuzz::EngineOptions fuzz_options(const harness::Scenario& base,
                                 const std::string& out_dir = "") {
  fuzz::EngineOptions o;
  o.trials = kFuzzTrials;
  o.seed = base.seed;
  o.jobs = kPoolJobs;
  o.generation_size = kFuzzGeneration;
  o.out_dir = out_dir;
  return o;
}

/// Failures of one engine run. A finding fails the trial that first hit its
/// invariant signature (the engine reports no other violating trial); a
/// run that misses the committed corpus's coverage key count or digest, at
/// that corpus's own seed, budget and cluster size, fails every trial.
std::int64_t fuzz_failures(const fuzz::FuzzReport& r,
                           const harness::Scenario& base, const Args& args,
                           std::vector<std::string>& why) {
  std::int64_t failed = 0;
  for (const fuzz::Finding& f : r.findings) {
    std::string inv;
    for (const auto& i : f.invariants) inv += (inv.empty() ? "" : ",") + i;
    why.push_back("finding at trial " + std::to_string(f.trial_index) + ": " +
                  inv);
    ++failed;
  }
  std::string error;
  auto ref = fuzz::load_coverage_report(args.coverage_ref, error);
  if (!ref) {
    why.push_back("coverage reference: " + error);
    return r.trials;
  }
  if (ref->fuzz_seed == base.seed && ref->trials == r.trials &&
      ref->cluster_size == base.cluster_size &&
      (ref->coverage_keys != r.coverage_keys ||
       ref->coverage_digest != r.coverage_digest)) {
    why.push_back("coverage " + std::to_string(r.coverage_keys) + " keys / " +
                  std::to_string(r.coverage_digest) + " != committed " +
                  std::to_string(ref->coverage_keys) + " keys / " +
                  std::to_string(ref->coverage_digest));
    return r.trials;
  }
  return failed;
}

std::string fuzz_digest(const fuzz::FuzzReport& r) {
  Digest d;
  d.add(r.trials);
  d.add(r.coverage_keys);
  d.add(r.coverage_digest);
  d.add(r.corpus_size);
  d.add(r.findings.size());
  return hex(d.h);
}

// ---------------------------------------------------------------------------
// Layer probes: public entry points on inputs shaped like the workload's

std::string member_name(int i) { return "node-" + std::to_string(i); }

swim::MembershipTable full_table(int n, Rng& rng) {
  swim::MembershipTable t(member_name(0));
  for (int i = 0; i < n; ++i) {
    swim::Member m;
    m.name = member_name(i);
    m.addr = Address{static_cast<std::uint32_t>(0x0a000000 + i), 7946};
    t.add(std::move(m), rng);
  }
  return t;
}

/// Stores `v` where the compiler must assume it is read, so the timed loops
/// that produce it cannot be optimised away.
void keep(std::size_t v) {
  static volatile std::size_t sink;
  sink = v;
}

/// Host µs per call of `fn`, timed over `iters` calls.
template <typename Fn>
double us_per_call(long iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (long i = 0; i < iters; ++i) fn(i);
  return since(t0) * 1e6 / static_cast<double>(iters);
}

void probe_table(int n, int fanout, Output& out) {
  Rng rng(0x7461626c65);
  swim::MembershipTable t = full_table(n, rng);
  std::size_t sink = 0;
  const long sel_iters = std::max(2000L, 10'000'000L / n);
  out.put("swim.table.select_us", us_per_call(sel_iters, [&](long) {
            sink += t.random_active(fanout, rng, {}).size();
          }));
  std::vector<std::string> names;
  for (int i = 0; i < 4096; ++i) {
    names.push_back(member_name(static_cast<int>(rng.uniform(n))));
  }
  out.put("swim.table.find_us", us_per_call(2'000'000L, [&](long i) {
            sink += t.find(names[static_cast<std::size_t>(i) & 4095]) !=
                    nullptr;
          }));
  TimePoint now{};
  out.put("swim.table.update_us", us_per_call(200'000L, [&](long i) {
            const std::string& name = names[static_cast<std::size_t>(i) & 4095];
            if (name == t.self_name()) return;
            swim::Member* m = t.find(name);
            t.set_state(*m, swim::MemberState::kSuspect, now);
            t.set_state(*m, swim::MemberState::kDead, now);
            t.set_state(*m, swim::MemberState::kAlive, now);
            swim::Member copy = *m;
            t.remove(name);
            t.add(std::move(copy), rng);
          }));
  keep(sink);
}

std::vector<std::uint8_t> alive_frame(int i, std::uint64_t inc) {
  BufWriter w(48);
  proto::encode(proto::Alive{member_name(i), inc,
                             Address{static_cast<std::uint32_t>(i), 7946}},
                w);
  return std::move(w).take();
}

void probe_bcast(int depth, int n, std::size_t budget, Output& out) {
  depth = std::max(depth, 1);
  proto::BroadcastQueue q(4);
  int next = 0;
  auto top_up = [&] {
    while (q.pending() < static_cast<std::size_t>(depth)) {
      q.queue(member_name(next), alive_frame(next, 1));
      ++next;
    }
  };
  top_up();
  double busy = 0;
  long calls = 0;
  std::size_t frames = 0;
  const auto wall = Clock::now();
  while (since(wall) < 0.25 || calls < 1000) {
    const auto t0 = Clock::now();
    frames += q.get_broadcasts(0, budget, n).size();
    busy += since(t0);
    ++calls;
    top_up();
  }
  out.put("proto.bcast.select_us", busy * 1e6 / static_cast<double>(calls));
  std::vector<std::vector<std::uint8_t>> replacements;
  for (int i = 0; i < 64; ++i) replacements.push_back(alive_frame(i, 2));
  std::vector<std::string> queued;
  for (int k = next - depth; k < next; ++k) queued.push_back(member_name(k));
  Rng rng(0x71756575);
  out.put("proto.bcast.queue_us", us_per_call(200'000L, [&](long i) {
            q.queue(queued[rng.uniform(queued.size())],
                    replacements[static_cast<std::size_t>(i) & 63]);
          }));
  keep(frames);
}

/// encode + pack_compound, then unpack_compound + decode, of datagrams in
/// the workload's control-message mix, each carrying the average
/// piggyback load.
void probe_codec(const std::map<std::string, std::int64_t>& counters, int n,
                 Output& out) {
  std::int64_t total = 0;
  for (const auto& [k, v] : counters) {
    if (k.rfind("net.sent.", 0) == 0) total += v;
  }
  const double avg_bytes =
      counters.count("net.msgs_sent") && counters.at("net.msgs_sent") > 0
          ? static_cast<double>(counters.at("net.bytes_sent")) /
                static_cast<double>(counters.at("net.msgs_sent"))
          : 64.0;
  auto control = [&](const std::string& type, int i) -> proto::Message {
    const Address a{static_cast<std::uint32_t>(i), 7946};
    if (type == "ping") {
      return proto::Ping{1, member_name(i), member_name(0), a};
    }
    if (type == "ping-req") {
      return proto::PingReq{1, member_name(i), a, member_name(0), a, 500000,
                            true};
    }
    if (type == "ack") return proto::Ack{1, member_name(i)};
    if (type == "nack") return proto::Nack{1, member_name(i)};
    if (type == "push-pull-req" || type == "push-pull-resp") {
      proto::PushPull p;
      p.is_response = type == "push-pull-resp";
      p.from = member_name(0);
      p.from_addr = a;
      for (int m = 0; m < n; ++m) {
        p.members.push_back({member_name(m),
                             Address{static_cast<std::uint32_t>(m), 7946}, 1,
                             0});
      }
      return p;
    }
    return proto::Alive{member_name(i), 1, a};  // gossip-only datagrams
  };
  std::vector<proto::Message> controls;
  for (const auto& [k, v] : counters) {
    if (k.rfind("net.sent.", 0) != 0 || v <= 0) continue;
    const auto count =
        std::max<std::int64_t>(1, v * 256 / std::max<std::int64_t>(total, 1));
    for (std::int64_t i = 0; i < count; ++i) {
      controls.push_back(control(k.substr(9), static_cast<int>(i % n)));
    }
  }
  if (controls.empty()) controls.push_back(control("ping", 1));
  std::vector<std::vector<std::uint8_t>> gossip;
  for (int i = 0; i < 64; ++i) gossip.push_back(alive_frame(i % n, 1));

  std::vector<std::vector<std::uint8_t>> datagrams;
  double encode_s = 0, decode_s = 0, kb = 0;
  const auto wall = Clock::now();
  int rounds = 0;
  while (since(wall) < 0.25 || rounds < 3) {
    datagrams.clear();
    const auto t0 = Clock::now();
    std::size_t g = 0;
    for (const proto::Message& m : controls) {
      std::vector<std::vector<std::uint8_t>> frames;
      BufWriter w(64);
      proto::encode(m, w);
      std::size_t bytes = w.size();
      while (bytes + 40 < avg_bytes) {
        frames.push_back(gossip[g++ & 63]);
        bytes += frames.back().size() + 2;
      }
      frames.push_back(std::move(w).take());
      datagrams.push_back(proto::pack_compound(frames));
    }
    encode_s += since(t0);
    const auto t1 = Clock::now();
    std::vector<std::span<const std::uint8_t>> parts;
    std::size_t decoded = 0;
    for (const auto& d : datagrams) {
      if (!proto::unpack_compound(d, parts)) die("codec probe: unpack failed");
      for (const auto& p : parts) {
        BufReader r(p);
        decoded += proto::decode(r).has_value();
      }
    }
    decode_s += since(t1);
    for (const auto& d : datagrams) {
      kb += static_cast<double>(d.size()) / 1024.0;
    }
    if (decoded == 0) die("codec probe: nothing decoded");
    ++rounds;
  }
  out.put("proto.codec.us_per_kb", (encode_s + decode_s) * 1e6 / kb);
}

void probe_inject(const harness::Scenario& shape,
                  const std::vector<fault::Timeline>& timelines, Output& out) {
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const fault::Timeline& tl : timelines) {
      auto cluster = build_cluster(shape, shape.seed);
      sim::Simulator& sim = *cluster->simulator();
      const auto t0 = Clock::now();
      fault::FaultInjector().inject(sim, tl, sim.now(), shape.run_length);
      us.push_back(since(t0) * 1e6);
    }
  }
  out.put("fault.inject_us", median(us));
}

void probe_mutate(int n, std::vector<fault::Timeline> parents, Output& out) {
  fuzz::Mutator mut(n);
  Rng rng(0x6d757461);
  if (parents.empty() || parents.front().size() == 0) {
    parents.clear();
    for (int i = 0; i < 16; ++i) parents.push_back(mut.random_timeline(rng));
  }
  std::size_t sink = 0;
  out.put("fuzz.mutate_us", us_per_call(50'000L, [&](long i) {
            const auto& a =
                parents[static_cast<std::size_t>(i) % parents.size()];
            const auto& b =
                parents[static_cast<std::size_t>(i * 7 + 3) % parents.size()];
            sink += mut.mutate(a, b, rng).size();
          }));
  keep(sink);
}

/// The fault kind of each timeline entry, as CoverageCollector wants them.
std::vector<fault::FaultKind> entry_kinds(const harness::Scenario& s) {
  std::vector<fault::FaultKind> kinds;
  for (const auto& e : s.effective_timeline().entries()) {
    kinds.push_back(e.fault.kind);
  }
  return kinds;
}

/// The checking layer over `scenarios`: events reaching sinks per trial, the
/// checker's cost (checks-on minus checks-off host time, per event), and
/// CoverageCollector's cost over the recorded stream.
void probe_check(const std::vector<harness::Scenario>& scenarios, Output& out) {
  double on_s = 0, off_s = 0, cov_s = 0;
  std::int64_t events = 0;
  for (harness::Scenario s : scenarios) {
    CountingSink off_sink(false, true);
    s.checks = check::Spec{};
    auto t0 = Clock::now();
    harness::run(s, {&off_sink});
    off_s += since(t0);
    CountingSink on_sink;
    s.checks = check::Spec::all();
    t0 = Clock::now();
    harness::run(s, {&on_sink});
    on_s += since(t0);
    events += off_sink.events;

    check::CoverageCollector cov(entry_kinds(s));
    t0 = Clock::now();
    for (const check::TraceEvent& e : off_sink.kept) cov.on_trace_event(e);
    cov_s += since(t0);
  }
  const double ev = static_cast<double>(std::max<std::int64_t>(events, 1));
  out.put("check.events_per_trial", ev / static_cast<double>(scenarios.size()));
  out.put("check.checker_us_per_event", (on_s - off_s) * 1e6 / ev);
  out.put("check.coverage_us_per_event", cov_s * 1e6 / ev);
}

std::map<std::string, std::int64_t> counters_of(const Metrics& m) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [k, c] : m.counters()) out[k] = c.value();
  return out;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

void put_counters(const std::map<std::string, std::int64_t>& c, double trials,
                  double vs, Output& out) {
  auto get = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  out.put("swim.probe_fail_frac",
          ratio(get("probe.failed"), get("probe.started")));
  out.put("swim.suspicions_per_trial", ratio(get("suspicion.started"), trials));
  out.put("net.msgs_per_vs", ratio(get("net.msgs_sent"), vs));
  out.put("net.bytes_per_vs", ratio(get("net.bytes_sent"), vs));
}

/// The counter-based layers of a traced campaign; returns its summed
/// counters (the codec probe's message mix).
std::map<std::string, std::int64_t> put_campaign_counters(
    const GridRun& run, const std::vector<CountingSink*>& sinks,
    Output& out) {
  double vs = 0, datagrams = 0;
  std::map<std::string, std::int64_t> counters;
  for (const GridTrial& t : run.trials) {
    vs += t.vs;
    for (const auto& [k, v] : t.counters) counters[k] += v;
  }
  for (const CountingSink* s : sinks) {
    datagrams += static_cast<double>(s->datagram_events);
  }
  out.put("sim.datagrams_per_vs", datagrams / vs);
  put_counters(counters, static_cast<double>(run.trials.size()), vs, out);
  return counters;
}

/// The simulator and protocol layers of one traced cold start.
void put_join_layers(const JoinTrial& t, Output& out) {
  out.put("sim.events_per_vs", ratio(static_cast<double>(t.events), t.vs));
  out.put("sim.us_per_event.bootstrap",
          ratio(t.boot_host_s * 1e6, static_cast<double>(t.boot_events)));
  out.put("sim.us_per_event.steady",
          ratio(t.steady_host_s * 1e6, static_cast<double>(t.steady_events)));
  out.put("swim.converge_vs", t.converge_vs);
  out.put("proto.bcast_pending_peak", t.pending_peak_sum);
}

// ---------------------------------------------------------------------------
// Workloads

struct Result {
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

void finish(Output& out, Result& r) {
  out.put("attempted", static_cast<double>(r.attempted));
  out.put("failed", static_cast<double>(r.failed));
  for (auto& f : r.failures) out.add("failures", std::move(f));
}

/// Cold-start probes `first`..`first + count - 1` at a pool workload's
/// cluster shape, for converge_wall_s. The timed loops run a few before each
/// unit, so their median spans the whole run, not just its first seconds.
std::vector<JoinTrial> shape_probes(const harness::Scenario& shape, int first,
                                    int count, bool traced) {
  std::vector<JoinTrial> out;
  for (int i = first; i < first + count; ++i) {
    out.push_back(join_trial(shape,
                             harness::trial_seed(shape.seed, {kJoinSalt}, i),
                             shape.quiesce, shape.quiesce, traced));
  }
  return out;
}

int probes_per_unit(int n) { return n >= 100 ? 5 : 20; }

// ---- scale-join ----------------------------------------------------------

void scale_join(const Args& args, const std::vector<harness::Scenario>& in,
                Output& out) {
  const harness::Scenario& s = in.front();
  // The file's quiesce is the span a cold start must converge in; its
  // run_length extends the trial past that span as a steady window.
  const Duration horizon = s.quiesce + s.run_length;
  Result res;
  auto seed = [&](int i) {
    return harness::trial_seed(s.seed, {kJoinSalt}, i);
  };
  if (args.mode == "run") {
    std::vector<double> walls, converge;
    double vs = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i == 0 || since(t0) + median(walls) <= args.seconds; ++i) {
      JoinTrial t = join_trial(s, seed(i), s.quiesce, horizon, false);
      ++res.attempted;
      if (std::string why = join_failure(t, s.quiesce); !why.empty()) {
        ++res.failed;
        res.failures.push_back(why);
      }
      walls.push_back(t.wall_s);
      converge.push_back(t.converge_wall_s);
      vs += t.vs;
      out.add("trial_digests", t.digest());
    }
    const double wall = since(t0);
    out.put("vsec_per_s", vs / wall);
    out.put("trials_per_s", static_cast<double>(walls.size()) / wall);
    out.put("trial_wall_p50_s", median(walls));
    out.put("trial_wall_p75_s", quantile(walls, 0.75));
    out.put("converge_wall_s", median(converge));
    out.put("samples.trials", static_cast<double>(walls.size()));
    out.put("samples.converge", static_cast<double>(converge.size()));
    out.put("peak_rss_mb", peak_rss_kb() / 1024.0);
  } else {
    const JoinTrial plain = join_trial(s, seed(0), s.quiesce, horizon, false);
    CountingSink sink(true, false);
    const JoinTrial t = join_trial(s, seed(0), s.quiesce, horizon, true, &sink);
    res.attempted = 2;
    for (const JoinTrial* x : {&plain, &t}) {
      if (std::string why = join_failure(*x, s.quiesce); !why.empty()) {
        ++res.failed;
        res.failures.push_back(why);
      }
    }
    out.add("trial_digests", t.digest());
    out.put("trace.overhead_s", t.wall_s - plain.wall_s);
    // One worker: it is busy while the simulator runs, idle in the build,
    // the convergence checks and the fold.
    const double busy = t.boot_host_s + t.steady_host_s;
    out.put("harness.trial_busy_s", busy);
    out.put("harness.pool_idle_frac", 1.0 - busy / t.wall_s);
    out.put("harness.fold_s", t.fold_s);
    std::vector<double> builds;
    for (int i = 0; i < 5; ++i) {
      const auto b0 = Clock::now();
      auto c = build_cluster(s, seed(i));
      c->start();
      builds.push_back(since(b0));
    }
    out.put("sim.build_s", median(builds));
    put_join_layers(t, out);
    out.put("sim.datagrams_per_vs",
            ratio(static_cast<double>(t.datagrams), t.vs));
    out.put("swim.rss_kb_per_member", peak_rss_kb() / s.cluster_size);
    put_counters(counters_of(t.metrics), 1, t.vs, out);
    probe_table(s.cluster_size, s.config.gossip_fanout, out);
    probe_bcast(static_cast<int>(t.pending_peak_node), s.cluster_size,
                s.config.max_packet_bytes, out);
    probe_codec(counters_of(t.metrics), s.cluster_size, out);
    probe_inject(s, {s.effective_timeline()}, out);
    probe_mutate(s.cluster_size, {s.effective_timeline()}, out);
    // The checker over the same cold start, cut at the convergence span.
    harness::Scenario short_run = s;
    short_run.quiesce =
        sec(static_cast<std::int64_t>(std::ceil(t.converge_vs)) + 1);
    short_run.run_length = sec(1);
    probe_check({short_run}, out);
    // The one traced trial extends an empty coverage map by definition.
    out.put("fuzz.new_cov_frac", 1.0);
  }
  finish(out, res);
}

// ---- paper-grid ----------------------------------------------------------

void grid_failures(const GridRun& run, const Args& args, Result& res) {
  res.attempted += static_cast<std::int64_t>(run.trials.size());
  const auto failures = gate_totals(config_totals(run), args);
  if (!failures.empty()) {
    res.failed += static_cast<std::int64_t>(run.trials.size());
    for (const auto& f : failures) res.failures.push_back(f);
  }
}

void paper_grid(const Args& args, const std::vector<harness::Scenario>& in,
                Output& out) {
  const harness::Campaign c = grid_campaign(in);
  const harness::Scenario& shape = in.front();
  Result res;
  if (args.mode == "run") {
    const int k = probes_per_unit(shape.cluster_size);
    std::vector<double> converge, walls;
    double vs = 0, wall = 0, trials = 0, last = 0;
    std::string first_digests;
    const auto t0 = Clock::now();
    for (int u = 0; u == 0 || since(t0) + last <= args.seconds; ++u) {
      const auto u0 = Clock::now();
      for (const JoinTrial& p : shape_probes(shape, u * k, k, false)) {
        converge.push_back(p.converge_wall_s);
      }
      GridRun run = run_grid(c, nullptr);
      grid_failures(run, args, res);
      for (double w : run.trial_walls) walls.push_back(w);
      for (const GridTrial& t : run.trials) vs += t.vs;
      trials += static_cast<double>(run.trials.size());
      wall += run.wall_s;
      last = since(u0);
      std::string digests;
      for (const GridTrial& t : run.trials) digests += t.digest + " ";
      if (u == 0) {
        first_digests = digests;
        for (const GridTrial& t : run.trials) {
          out.add("trial_digests", t.digest);
        }
        for (const auto& [config, tot] : config_totals(run)) {
          out.add("config_totals", config + " " + std::to_string(tot.fp) + " " +
                                       std::to_string(tot.fph) + " " +
                                       std::to_string(tot.msgs) + " " +
                                       std::to_string(tot.bytes));
        }
      } else if (digests != first_digests) {
        res.failed += static_cast<std::int64_t>(run.trials.size());
        res.failures.push_back("campaign repeat " + std::to_string(u) +
                               " differs from the first (not deterministic)");
      }
    }
    out.put("vsec_per_s", vs / wall);
    out.put("trials_per_s", trials / wall);
    out.put("trial_wall_p50_s", median(walls));
    out.put("trial_wall_p75_s", quantile(walls, 0.75));
    out.put("converge_wall_s", median(converge));
    out.put("samples.trials", static_cast<double>(walls.size()));
    out.put("samples.converge", static_cast<double>(converge.size()));
    out.put("peak_rss_mb", peak_rss_kb() / 1024.0);
  } else {
    const GridRun plain = run_grid(c, nullptr);
    std::vector<std::unique_ptr<check::TraceSink>> sinks;
    const int total = static_cast<int>(in.size()) * kGridReps;
    std::vector<CountingSink*> counting;
    std::vector<check::CoverageCollector*> coverage;
    // One counting sink (datagrams included) and one coverage collector per
    // trial, fanned out through a forwarding sink.
    struct Fan final : check::TraceSink {
      CountingSink count{true, false};
      check::CoverageCollector cov;
      explicit Fan(std::vector<fault::FaultKind> k) : cov(std::move(k)) {}
      void on_trace_event(const check::TraceEvent& e) override {
        count.on_trace_event(e);
        if (e.kind != check::TraceEventKind::kDatagram) cov.on_trace_event(e);
      }
      bool wants_datagrams() const override { return true; }
    };
    const auto grid = harness::expand_grid(c);
    for (int i = 0; i < total; ++i) {
      auto f = std::make_unique<Fan>(entry_kinds(
          grid[static_cast<std::size_t>(i / kGridReps)].scenario));
      counting.push_back(&f->count);
      coverage.push_back(&f->cov);
      sinks.push_back(std::move(f));
    }
    const GridRun run = run_grid(c, &sinks);
    grid_failures(plain, args, res);
    grid_failures(run, args, res);
    for (const GridTrial& t : run.trials) out.add("trial_digests", t.digest);
    out.put("trace.overhead_s", run.wall_s - plain.wall_s);
    const double busy = sum(run.trial_walls);
    out.put("harness.trial_busy_s", busy);
    out.put("harness.pool_idle_frac", 1.0 - busy / (kPoolJobs * run.wall_s));
    out.put("harness.fold_s", run.fold_s);

    std::vector<JoinTrial> probes = shape_probes(shape, 0, 5, true);
    std::vector<double> builds;
    for (const JoinTrial& p : probes) builds.push_back(p.build_s);
    out.put("sim.build_s", median(builds));
    const JoinTrial& p = probes.front();
    put_join_layers(p, out);

    const auto counters = put_campaign_counters(run, counting, out);
    out.put("swim.rss_kb_per_member", peak_rss_kb() / shape.cluster_size);
    fuzz::CoverageMap map;
    int extending = 0;
    for (const auto* cov : coverage) extending += map.merge(cov->keys()) > 0;
    out.put("fuzz.new_cov_frac", static_cast<double>(extending) / total);

    probe_table(shape.cluster_size, shape.config.gossip_fanout, out);
    probe_bcast(static_cast<int>(p.pending_peak_node), shape.cluster_size,
                shape.config.max_packet_bytes, out);
    probe_codec(counters, shape.cluster_size, out);
    std::vector<fault::Timeline> timelines;
    std::vector<harness::Scenario> checked;
    for (std::size_t i = 0; i < in.size(); ++i) {
      timelines.push_back(in[i].effective_timeline());
      if (i % 6 == 0) checked.push_back(in[i]);
    }
    probe_inject(shape, timelines, out);
    probe_mutate(shape.cluster_size, timelines, out);
    probe_check(checked, out);
  }
  finish(out, res);
}

// ---- fuzz-corpus ---------------------------------------------------------

void fuzz_corpus(const Args& args, const std::vector<harness::Scenario>& in,
                 Output& out) {
  const harness::Scenario& base = in.front();
  Result res;
  auto check_run = [&](const fuzz::FuzzReport& r) {
    res.attempted += r.trials;
    res.failed += fuzz_failures(r, base, args, res.failures);
  };
  const double trial_vs = (base.quiesce + base.run_length).seconds();
  if (args.mode == "run") {
    const int k = probes_per_unit(base.cluster_size);
    std::vector<double> converge, per_trial;
    double wall = 0, trials = 0, last = 0;
    const auto t0 = Clock::now();
    for (int u = 0; u == 0 || since(t0) + last <= args.seconds; ++u) {
      const auto u0 = Clock::now();
      for (const JoinTrial& p : shape_probes(base, u * k, k, false)) {
        converge.push_back(p.converge_wall_s);
      }
      const auto r0 = Clock::now();
      const fuzz::FuzzReport r = fuzz::Engine(base, fuzz_options(base)).run();
      const double run_s = since(r0);
      last = since(u0);
      check_run(r);
      wall += run_s;
      trials += r.trials;
      per_trial.push_back(run_s * kPoolJobs / r.trials);
      if (u == 0) {
        out.add("trial_digests", fuzz_digest(r));
      }
    }
    out.put("vsec_per_s", trials * trial_vs / wall);
    out.put("trials_per_s", trials / wall);
    out.put("trial_wall_p50_s", median(per_trial));
    out.put("trial_wall_p75_s", quantile(per_trial, 0.75));
    out.put("converge_wall_s", median(converge));
    out.put("samples.trials", static_cast<double>(per_trial.size()));
    out.put("samples.converge", static_cast<double>(converge.size()));
    out.put("peak_rss_mb", peak_rss_kb() / 1024.0);
  } else {
    auto r0 = Clock::now();
    const fuzz::FuzzReport plain = fuzz::Engine(base, fuzz_options(base)).run();
    const double plain_s = since(r0);
    const std::string corpus_dir =
        (std::filesystem::path(args.inputs) / "corpus").string();
    std::filesystem::remove_all(corpus_dir);
    r0 = Clock::now();
    const fuzz::FuzzReport r =
        fuzz::Engine(base, fuzz_options(base, corpus_dir)).run();
    const double traced_s = since(r0);
    check_run(plain);
    check_run(r);
    out.add("trial_digests", fuzz_digest(r));
    out.put("trace.overhead_s", traced_s - plain_s);
    out.put("fuzz.new_cov_frac", static_cast<double>(r.corpus_size) / r.trials);

    // The run's own corpus, replayed on the same pool: the harness seam
    // (per-trial host time), the probe counters and datagrams per trial.
    std::vector<harness::Scenario> corpus;
    for (const std::string& f : r.corpus_files) {
      std::string error;
      auto s = harness::ScenarioFile::load(
          (std::filesystem::path(corpus_dir) / f).string(), error);
      if (!s) die(f + ": " + error);
      corpus.push_back(std::move(*s));
    }
    if (corpus.empty()) corpus.push_back(base);
    harness::Campaign c;
    c.name = "fuzz-corpus-replay";
    c.base = corpus.front();
    std::vector<harness::AxisPoint> points;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      harness::Scenario s = corpus[i];
      s.checks = check::Spec{};
      points.push_back({s.name, i + 1, [s](harness::Scenario& x) { x = s; }});
    }
    c.axes.push_back(harness::Axis::custom("corpus", std::move(points)));
    c.jobs = kPoolJobs;
    std::vector<std::unique_ptr<check::TraceSink>> sinks;
    std::vector<CountingSink*> counting;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      auto s = std::make_unique<CountingSink>(true, false);
      counting.push_back(s.get());
      sinks.push_back(std::move(s));
    }
    const GridRun replay = run_grid(c, &sinks);
    const double busy = sum(replay.trial_walls);
    out.put("harness.trial_busy_s", busy);
    out.put("harness.pool_idle_frac", 1.0 - busy / (kPoolJobs * replay.wall_s));
    out.put("harness.fold_s", replay.fold_s);
    const auto counters = put_campaign_counters(replay, counting, out);

    std::vector<JoinTrial> probes = shape_probes(base, 0, 21, true);
    std::vector<double> builds;
    for (const JoinTrial& p : probes) builds.push_back(p.build_s);
    out.put("sim.build_s", median(builds));
    const JoinTrial& p = probes.front();
    put_join_layers(p, out);
    out.put("swim.rss_kb_per_member", peak_rss_kb() / base.cluster_size);

    std::vector<fault::Timeline> timelines;
    for (const harness::Scenario& s : corpus) {
      timelines.push_back(s.effective_timeline());
    }
    probe_table(base.cluster_size, base.config.gossip_fanout, out);
    probe_bcast(static_cast<int>(p.pending_peak_node), base.cluster_size,
                base.config.max_packet_bytes, out);
    probe_codec(counters, base.cluster_size, out);
    probe_inject(base, timelines, out);
    probe_mutate(base.cluster_size, timelines, out);
    probe_check(corpus, out);
  }
  finish(out, res);
}

// ---------------------------------------------------------------------------

void setup(const Args& args) {
  const std::vector<harness::Scenario> in = load_inputs(args.inputs);
  const harness::Scenario& s = in.front();
  if (args.workload == "scale-join") {
    auto cluster =
        build_cluster(s, harness::trial_seed(s.seed, {kJoinSalt}, 0));
    cluster->start();
    std::fflush(stdout);
    std::_Exit(0);  // teardown is not set-up
  } else if (args.workload == "paper-grid") {
    const harness::Campaign c = grid_campaign(in);
    if (auto errors = c.validate(); !errors.empty()) die(errors.front());
  } else {
    if (auto errors = s.validate(); !errors.empty()) die(errors.front());
    fuzz::Engine engine(s, fuzz_options(s));
    (void)engine;
  }
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) die("usage: lgbench setup|run|trace --workload W --inputs DIR");
  a.mode = argv[1];
  if (a.mode != "setup" && a.mode != "run" && a.mode != "trace") {
    die("unknown mode '" + a.mode + "' (expected setup, run or trace)");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) die("flag " + k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--inputs") {
      a.inputs = v;
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--coverage-ref") {
      a.coverage_ref = v;
    } else if (k == "--ref") {
      // CONFIG=low fp,fp-,msgs,bytes then high fp,fp-,msgs,bytes
      const auto eq = v.find('=');
      if (eq == std::string::npos) die("--ref wants CONFIG=eight totals");
      std::vector<double> vals;
      std::stringstream ss(v.substr(eq + 1));
      std::string item;
      while (std::getline(ss, item, ',')) {
        vals.push_back(std::atof(item.c_str()));
      }
      if (vals.size() != 8) die("--ref wants eight totals: " + v);
      a.refs[v.substr(0, eq)] = vals;
    } else {
      die("unknown flag " + k);
    }
  }
  if (a.workload != "scale-join" && a.workload != "paper-grid" &&
      a.workload != "fuzz-corpus") {
    die("unknown workload '" + a.workload + "'");
  }
  if (a.inputs.empty()) die("--inputs DIR is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.mode == "setup") {
      setup(args);
      return 0;
    }
    const auto t0 = Clock::now();
    const std::vector<harness::Scenario> in = load_inputs(args.inputs);
    const double load_s = since(t0);
    Output out;
    if (args.mode == "trace") {
      std::vector<double> loads{load_s};
      for (int i = 0; i < 10; ++i) {
        const auto l0 = Clock::now();
        (void)load_inputs(args.inputs);
        loads.push_back(since(l0));
      }
      out.put("harness.load_s", median(loads));
    }
    if (args.workload == "scale-join") {
      scale_join(args, in, out);
    } else if (args.workload == "paper-grid") {
      paper_grid(args, in, out);
    } else {
      fuzz_corpus(args, in, out);
    }
    out.print();
  } catch (const std::exception& e) {
    die(e.what());
  }
  return 0;
}
