// Run any scenario from the built-in catalog, or compose one from flags,
// without writing code.
//
//   ./examples/scenario_runner --list [--json | --markdown]
//       Enumerate the registered scenarios (paper figures/tables, the
//       partition / flapping / churn kinds, the composed fault timelines
//       and the big-* large-cluster tier). --json emits a machine-readable
//       catalog: name, paper ref, description, cluster size and the
//       fault-timeline summary. --markdown emits the docs/scenarios.md
//       reference page (regenerate with tools/update-scenario-docs.sh; CI
//       fails when the committed page is stale).
//
//   ./examples/scenario_runner --scenario NAME [overrides]
//       Run a cataloged scenario; any flag below overrides that field.
//       --length changes the observation window only, never the fault
//       timeline's spans (the same as on --scenario-file).
//
//   ./examples/scenario_runner [flags]
//       Compose and run an ad-hoc scenario:
//     --nodes N          cluster size               (default 64)
//     --config NAME      swim|lha-probe|lha-suspicion|buddy|lifeguard
//                                                   (default lifeguard)
//     --length S         observation length, seconds (default 120)
//     --quiesce S        settling time, seconds      (default 15)
//     --alpha A --beta B suspicion tuning            (default 5 / 6; only
//                        for a config with LHA-Suspicion)
//     --seed S           RNG seed                    (default 1)
//     --membership NAME  membership backend: swim | central[:miss=N] |
//                        static                      (default swim)
//       Without --fault, the ad-hoc scenario runs the paper's §V-D2
//       interval anomaly over the whole window:
//         --fault interval@0s:<length>,victims=8,d=16384ms,i=4ms
//
//   ./examples/scenario_runner --fault SPEC [--fault SPEC]... [flags]
//       Compose the fault timeline; each SPEC is KIND@AT:DUR[,key=val]...
//       (see fault/fault.h for the grammar), e.g.
//         --fault stress@0s:60s,victims=2 --fault partition@15s:20s,victims=5
//         --fault loss@0s:90s,pct=25,egress=0.3,ingress=0.1
//       With --scenario or --scenario-file, --fault replaces the base's
//       timeline.
//
//   ./examples/scenario_runner --check [flags]
//       Evaluate the built-in protocol invariant suite (src/check) live
//       against the run: incarnation monotonicity, refutation rules,
//       suspicion-timeout bounds, convergence, gossip retransmit bounds,
//       crash silence and partition containment. Any violation prints the
//       verdicts, writes a replayable trace (to --trace FILE or
//       <scenario>-violation.trace.jsonl) and exits nonzero.
//       --suspicion-cap MS overrides the suspicion-bounds upper bound —
//       setting it below the protocol's floor plants a violation, the
//       quickest way to see the verdict/trace/shrink tooling end to end.
//
//   ./examples/scenario_runner --trace FILE [flags]
//       Record the run's merged event stream (membership transitions +
//       simulator fault events) to FILE as a compact JSONL trace.
//
//   ./examples/scenario_runner --replay FILE
//       Rebuild the scenario a trace describes, re-execute it, and verify
//       the replayed stream matches the recording bit for bit; exits
//       nonzero on divergence. With --metrics-out DIR, the metric samples
//       recorded in the trace are extracted and exported offline instead —
//       no re-execution.
//
//   ./examples/scenario_runner --metrics-out DIR [--metrics-interval MS]
//                              [--spans] [flags]
//       Telemetry (src/obs): sample the cluster every MS of virtual time
//       (default 500 ms when --metrics-out is given) and write DIR/
//       series.jsonl (one sample per line; schema in docs/observability.md)
//       plus DIR/metrics.prom (Prometheus text exposition of the final
//       values). In campaign mode the per-trial series fold into
//       per-(time, metric) percentile bands: DIR/bands.jsonl and
//       DIR/bands.csv. --spans additionally records probe-round span events
//       (probe-start/ack/indirect/fail/nack) into the run's recording, so it
//       needs --trace or --check.
//
//   ./examples/scenario_runner --backend live [flags]
//       Execute the scenario on the live tier (src/live) instead of the
//       simulator: every member is a real OS process speaking real UDP on
//       loopback, faults are applied with signals and the userspace netem
//       shim, and the same invariants check the merged live event stream.
//       --backend sim (the default) picks the simulator. Extra live flags:
//     --timeout S        wall-clock watchdog: on expiry every worker is
//                        SIGKILLed and the runner exits 5 (no orphans)
//     --live-logs DIR    write each worker's stderr to DIR/node-N.log (live
//                        only)
//       --campaign and --replay are simulator-only (they depend on
//       bit-identical determinism a wall clock cannot provide).
//
//   ./examples/scenario_runner --campaign [--reps N] [--jobs N]
//                              [--json FILE] [--csv FILE] [flags]
//       Run the composed scenario as a Campaign: N repetitions with
//       independently derived seeds, executed on a worker pool (--jobs 0 =
//       one worker per hardware thread), aggregated with Student-t 95%
//       confidence intervals. --json / --csv stream per-trial and aggregate
//       artifacts (JSON-Lines / CSV) that are byte-identical at every --jobs
//       level.
//
//   ./examples/scenario_runner --scenario-file FILE [flags]
//       Run a scenario loaded from a versioned JSON file (the committed
//       scenarios/*.json format; see docs/scenario-files.md). A first-class
//       base like --scenario: every override flag, both backends, --check,
//       --trace and --campaign compose with it; given with --scenario, it
//       is refused. Malformed files are rejected with a message naming the
//       offending key/value.
//
//   ./examples/scenario_runner --validate-scenarios PATH
//       Strictly validate one scenario file, or every *.json under a
//       directory (scenarios/baselines.json validates as a baselines
//       document). Exits 2 listing every defect.
//
//   ./examples/scenario_runner --fuzz N [--fuzz-seed S] [--fuzz-out DIR]
//                              [--fuzz-jobs K] [flags]
//       Coverage-guided fault-timeline fuzzing (src/fuzz): N trials of
//       mutated fault timelines run against the composed base scenario
//       (cluster shape, config, membership and check tolerances compose
//       as usual; the timeline is replaced per candidate and the
//       invariant suite is force-enabled, so --fault and --seed are
//       refused: --fuzz-seed seeds the fuzzer). Every violation is
//       auto-shrunk (check::shrink) and written to DIR as a committed-
//       format reproducer scenario plus a baselines.json entry; the
//       corpus of coverage-extending timelines and a coverage.json report
//       land there too. The whole run — corpus, findings, every emitted
//       byte — is bit-reproducible for a given --fuzz-seed at every
//       --fuzz-jobs level. Exits 3 when the budget found violations.
//       See docs/fuzzing.md for the coverage signal and triage workflow.
//
//   ./examples/scenario_runner --record-baselines FILE [--include-big]
//                              [--jobs N]
//       Run the registry (non-big tier by default) and record per-scenario
//       metric bands to FILE — the scenarios/baselines.json artifact; see
//       tools/record-baselines.sh and docs/scenario-files.md for the band
//       policy.
//
//   ./examples/scenario_runner --gate FILE [run flags]
//       Run the composed scenario (simulator, single-run modes only) and
//       gate its metrics against the baselines in FILE: any out-of-band
//       metric prints a per-metric diff and exits 6.
//
//   ./examples/scenario_runner --gate-registry FILE [--include-big]
//                              [--jobs N]
//       Gate the whole registry tier against FILE in one process — the CI
//       behavioral-regression job. Prints one verdict per scenario and the
//       per-metric diff of every failure; exits 6 when any scenario lands
//       out of band.
//
//   ./examples/scenario_runner --paper NAME|all [--full] [--reps N]
//                              [--seed S] [--jobs N]
//       The paper ledger (harness/paper.h): print one evaluation artifact
//       (table4 table5 table6 table7 fig1 fig2 fig3 ablation-nack
//       ablation-regossip ablation-lhm) or all ten, each a fold of
//       campaigns over the registry's paper scenarios. The quick grids by
//       default; --full runs Tables II/III verbatim (10 repetitions, hours
//       of compute). --reps overrides every grid's repetitions, --seed is
//       the base seed (default 42), and the tables are identical at every
//       --jobs level. `all` runs a campaign shared by several rows (one
//       grid, one config) once.
//
// Prints the paper's metrics for the single run: FP, FP-, detection and
// dissemination latencies, message load. Malformed or out-of-range flag
// values are rejected with a message naming the flag and the accepted range.
// Each mode above is one row of the mode table (kModes, above main): it
// refuses any flag its row does not list, and any flag but --fault given
// twice.
//
// Exit codes: 0 success, 2 usage / malformed input, 3 invariant violations,
// 4 replay divergence, 5 live-run watchdog timeout, 6 baseline gate
// failure.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/replay.h"
#include "check/spec.h"
#include "check/trace.h"
#include "fault/fault.h"
#include "fuzz/engine.h"
#include "harness/campaign.h"
#include "harness/gate.h"
#include "harness/paper.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenariofile.h"
#include "harness/stats.h"
#include "harness/table.h"
#include "live/process.h"
#include "live/runner.h"
#include "membership/backend.h"
#include "net/udp_runtime.h"
#include "obs/export.h"
#include "obs/sampler.h"

using namespace lifeguard;
using namespace lifeguard::harness;

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "scenario_runner: %s\n(run with --list to see the "
               "catalog; see the file header for flags)\n",
               msg.c_str());
  std::exit(2);
}

/// Strict integer flag parser: the whole value must be a decimal number
/// inside [lo, hi]; anything else aborts with a message naming the flag.
std::int64_t parse_int(const std::string& flag, const char* text,
                       std::int64_t lo, std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    usage_error(flag + " expects an integer, got '" + text + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    usage_error(flag + " value " + text + " is out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Full uint64 range (seeds): strict, but no [lo, hi] window.
std::uint64_t parse_u64(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  if (text[0] == '-') {
    usage_error(flag + " expects a non-negative integer, got '" +
                std::string(text) + "'");
  }
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    usage_error(flag + " expects an integer, got '" + std::string(text) + "'");
  }
  if (errno == ERANGE) {
    usage_error(flag + " value " + text + " does not fit in 64 bits");
  }
  return v;
}

double parse_double(const std::string& flag, const char* text, double lo,
                    double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    usage_error(flag + " expects a number, got '" + text + "'");
  }
  if (errno == ERANGE || !(v >= lo && v <= hi)) {
    usage_error(flag + " value " + text + " is out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

swim::Config config_by_name(const std::string& name) {
  if (name == "swim") return swim::Config::swim_baseline();
  if (name == "lha-probe") return swim::Config::lha_probe_only();
  if (name == "lha-suspicion") return swim::Config::lha_suspicion_only();
  if (name == "buddy") return swim::Config::buddy_only();
  if (name == "lifeguard") return swim::Config::lifeguard();
  usage_error("unknown --config '" + name +
              "' (expected swim|lha-probe|lha-suspicion|buddy|lifeguard)");
}

/// Every flag's value, whichever mode takes it. One parse loop (parse())
/// fills it; the mode table decides which flags a command line may give.
struct Options {
  std::vector<std::string> flags;  // as given, without their values
  std::string target;              // the mode flag's PATH, FILE or NAME
  std::optional<Scenario> base;    // --scenario or --scenario-file
  std::vector<fault::TimelineEntry> faults;
  std::optional<int> nodes;
  std::optional<swim::Config> config;
  std::optional<std::string> membership;
  std::optional<Duration> length, quiesce;
  std::optional<double> alpha, beta;
  std::optional<std::uint64_t> seed;
  bool check = false;
  std::optional<Duration> suspicion_cap;
  std::optional<std::string> trace, gate, metrics_out, json, csv;
  std::optional<Duration> metrics_interval;
  bool spans = false, full = false, include_big = false;
  bool list_json = false, list_markdown = false;
  std::optional<int> reps;  // --campaign default 5; --paper: the grid's
  int jobs = 0;             // 0 = one worker per hardware thread
  int fuzz_trials = 0;
  std::uint64_t fuzz_seed = 1;
  std::optional<std::string> fuzz_out;
  int fuzz_jobs = 0;  // 0 = one worker per hardware thread
  harness::Backend backend = harness::Backend::kSim;
  std::optional<Duration> timeout;
  std::string live_logs = "live-logs";

  bool given(std::string_view flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }
};

/// The scenario a single run, a campaign or the fuzzer starts from: the base
/// (a catalog entry, a file or the ad-hoc default) with every override flag
/// applied, announced on stdout.
Scenario compose(const Options& o) {
  Scenario s;
  if (o.base) {
    s = *o.base;
  } else {
    s.name = "custom";
    s.summary = "ad-hoc scenario composed from flags";
    s.cluster_size = 64;
    s.config = swim::Config::lifeguard();
    s.run_length = sec(120);
  }
  if (o.nodes) s.cluster_size = *o.nodes;
  if (o.length) s.run_length = *o.length;
  if (o.quiesce) s.quiesce = *o.quiesce;
  if (o.seed) s.seed = *o.seed;
  if (o.config) s.config = *o.config;
  if (o.membership) s.membership = *o.membership;
  if ((o.alpha || o.beta) && !s.config.lha_suspicion) {
    usage_error("--alpha and --beta tune LHA-Suspicion, which " +
                s.config.table1_name() + " does not use");
  }
  if (o.alpha) s.config.suspicion_alpha = *o.alpha;
  if (o.beta) s.config.suspicion_beta = *o.beta;
  if (!o.faults.empty()) {
    s.timeline = fault::Timeline{};
    for (const fault::TimelineEntry& e : o.faults) s.timeline.add(e);
  } else if (!o.base) {
    s.timeline.add(Duration{}, s.run_length,
                   fault::Fault::interval_block(msec(16384), msec(4)),
                   fault::VictimSelector::uniform(8));
  }
  if (o.backend == harness::Backend::kLive &&
      membership::base_name(s.membership) != "swim") {
    usage_error("the live tier only runs the swim backend — '" + s.membership +
                "' is simulator-only");
  }

  // Mention the backend only when it isn't the default — keeps swim output
  // (and anything diffing it) byte-identical to pre-backend versions.
  const std::string membership_note =
      s.membership == "swim" ? "" : " membership=" + s.membership;
  std::printf("scenario: %s — %d nodes, %s, timeline [%s] "
              "length=%.0fs seed=%llu%s\n\n",
              s.name.c_str(), s.cluster_size, s.config.table1_name().c_str(),
              s.timeline.summary().c_str(), s.run_length.seconds(),
              static_cast<unsigned long long>(s.seed),
              membership_note.c_str());

  if (o.check) s.checks = check::Spec::all();
  if (o.suspicion_cap) s.checks.suspicion_cap = *o.suspicion_cap;
  if (o.metrics_interval) {
    s.metrics_interval = *o.metrics_interval;
  } else if (o.metrics_out && s.metrics_interval <= Duration{0}) {
    s.metrics_interval = msec(500);
  }
  return s;
}

/// A catalog entry's fault timeline, as both catalog formats show it.
std::string timeline_summary(const Scenario& s) {
  return s.timeline.empty() ? "none" : s.timeline.summary();
}

void list_catalog() {
  Table t({"Scenario", "Paper", "Fault timeline", "Nodes", "Membership",
           "Description"});
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    t.add_row({s.name, s.paper_ref.empty() ? "-" : s.paper_ref,
               timeline_summary(s), std::to_string(s.cluster_size),
               s.membership, s.summary});
  }
  t.print();
  std::printf("\nRun one with: scenario_runner --scenario NAME "
              "(flags override fields; e.g. --nodes 32 --length 60)\n");
}

/// The docs/scenarios.md reference page, generated so it can never drift
/// from the registry (CI regenerates and diffs it). Output is fully
/// deterministic: registry order, no timestamps.
void list_catalog_markdown() {
  std::printf(
      "# Scenario reference\n"
      "\n"
      "<!-- Generated by `scenario_runner --list --markdown` via\n"
      "     tools/update-scenario-docs.sh. Do not edit by hand: CI\n"
      "     regenerates this page and fails when it is stale. -->\n"
      "\n"
      "Every scenario in the built-in catalog "
      "(`harness::ScenarioRegistry::builtin()`), runnable with\n"
      "`scenario_runner --scenario NAME` (flags override fields; see\n"
      "`scenario_runner --list` for the live view and README.md for the\n"
      "workflow). The fault-timeline column is a one-line summary for\n"
      "reading (`fault::Timeline::summary()`: kind, onset+span, victims\n"
      "and the kind's main parameters), not the `--fault` grammar, which\n"
      "does not accept it. The full timeline of each entry is committed\n"
      "as versioned JSON in `scenarios/NAME.json`, with baseline metric\n"
      "bands in `scenarios/baselines.json` — run one with\n"
      "`scenario_runner --scenario-file scenarios/NAME.json`, and see\n"
      "[scenario-files.md](scenario-files.md) for the file format and the\n"
      "baseline-gate policy.\n"
      "\n"
      "| Scenario | Paper | Nodes | Length | Membership | Default checks | "
      "Fault timeline |\n"
      "|---|---|---:|---:|---|---|---|\n");
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    std::printf("| `%s` | %s | %d | %.0f s | `%s` | %s | `%s` |\n",
                s.name.c_str(),
                s.paper_ref.empty() ? "—" : s.paper_ref.c_str(),
                s.cluster_size, s.run_length.seconds(), s.membership.c_str(),
                s.checks.enabled ? "on" : "off",
                timeline_summary(s).c_str());
  }
  std::printf("\n## Descriptions\n\n");
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    std::printf("- **`%s`**%s — %s.\n", s.name.c_str(),
                s.paper_ref.empty() ? ""
                                    : (" (" + s.paper_ref + ")").c_str(),
                s.summary.c_str());
  }
  std::printf(
      "\nThe `big-*` tier (n = 1000–4000) ships with the full protocol\n"
      "invariant suite enabled and exists to exercise join storms,\n"
      "large-view dissemination and the simulator's hot paths at scale —\n"
      "see docs/benchmarks.md for the performance baselines that gate\n"
      "them.\n");
}

/// Machine-readable catalog for tooling: one object per scenario.
/// (json_escape comes from harness/report.h — one escaping rule set.)
void list_catalog_json() {
  std::printf("[\n");
  const auto& all = ScenarioRegistry::builtin().all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Scenario& s = all[i];
    std::printf("  {\"name\": \"%s\", \"paper_ref\": \"%s\", "
                "\"description\": \"%s\", \"nodes\": %d, "
                "\"run_length_s\": %.0f, \"membership\": \"%s\", "
                "\"timeline\": \"%s\"}%s\n",
                json_escape(s.name).c_str(), json_escape(s.paper_ref).c_str(),
                json_escape(s.summary).c_str(), s.cluster_size,
                s.run_length.seconds(), json_escape(s.membership).c_str(),
                json_escape(timeline_summary(s)).c_str(),
                i + 1 < all.size() ? "," : "");
  }
  std::printf("]\n");
}

std::string mean_ci(const Summary& s) {
  const ConfInterval ci = t_interval(s);
  return fmt_double(s.mean, 2) + " ± " + fmt_double(ci.half_width, 2);
}

void report_campaign(const CampaignResult& r) {
  const PointStats& ps = r.points.front();
  Table t({"Metric", "Mean ± 95% CI", "Min", "Max", "N"});
  auto row = [&t](const char* name, const Summary& s) {
    t.add_row({name, mean_ci(s), fmt_double(s.min, 2), fmt_double(s.max, 2),
               fmt_int(static_cast<std::int64_t>(s.count))});
  };
  row("FP events (healthy subjects)", ps.fp);
  row("FP- events (healthy reporters)", ps.fp_healthy);
  row("compound messages sent", ps.msgs);
  row("bytes sent", ps.bytes);
  if (ps.first_detect.count() > 0) {
    const Summary fd = ps.first_detect.summary();
    t.add_row({"1st detect p50 / p99 (s)",
               fmt_double(fd.p50, 2) + " / " + fmt_double(fd.p99, 2), "", "",
               fmt_int(static_cast<std::int64_t>(fd.count))});
  }
  if (ps.full_dissem.count() > 0) {
    const Summary dd = ps.full_dissem.summary();
    t.add_row({"full dissem p50 / p99 (s)",
               fmt_double(dd.p50, 2) + " / " + fmt_double(dd.p99, 2), "", "",
               fmt_int(static_cast<std::int64_t>(dd.count))});
  }
  t.print();
}

void report(const RunResult& r) {
  Table t({"Metric", "Value"});
  t.add_row({"FP events (healthy subjects)", fmt_int(r.fp_events)});
  t.add_row({"FP- events (healthy reporters)", fmt_int(r.fp_healthy_events)});
  if (!r.first_detect.empty()) {
    Histogram h;
    for (double s : r.first_detect) h.record(s);
    t.add_row({"detections", fmt_int(static_cast<std::int64_t>(h.count()))});
    t.add_row({"median 1st detect (s)", fmt_double(h.percentile(0.5), 2)});
    t.add_row({"99th 1st detect (s)", fmt_double(h.percentile(0.99), 2)});
  }
  if (!r.full_dissem.empty()) {
    Histogram h;
    for (double s : r.full_dissem) h.record(s);
    t.add_row({"median full dissem (s)", fmt_double(h.percentile(0.5), 2)});
  }
  t.add_row({"compound messages sent", fmt_int(r.msgs_sent)});
  t.add_row({"bytes sent", fmt_int(r.bytes_sent)});
  t.print();
}

void report_checks(const check::RunReport& cr) {
  std::printf("\ninvariants: %zu checked over %lld events — %s\n",
              cr.invariants.size(),
              static_cast<long long>(cr.events_seen),
              cr.passed() ? "all hold"
                          : (std::to_string(cr.total_violations) +
                             " violation(s)")
                                .c_str());
  for (const check::Violation& v : cr.violations) {
    std::printf("  %s\n", v.describe().c_str());
  }
  if (static_cast<std::int64_t>(cr.violations.size()) < cr.total_violations) {
    std::printf("  ... and %lld more\n",
                static_cast<long long>(cr.total_violations -
                                       static_cast<std::int64_t>(
                                           cr.violations.size())));
  }
}

/// Write DIR/series.jsonl + DIR/metrics.prom from one run's series. Returns
/// 0, or 2 when the directory/file cannot be created.
int write_metrics_artifacts(const std::string& dir, const obs::Series& series) {
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine; open errors are caught below
  const std::string series_path = dir + "/series.jsonl";
  std::ofstream js(series_path);
  if (!js) {
    std::fprintf(stderr, "scenario_runner: cannot write %s\n",
                 series_path.c_str());
    return 2;
  }
  obs::write_series_jsonl(js, series);
  const std::string prom_path = dir + "/metrics.prom";
  std::ofstream prom(prom_path);
  if (!prom) {
    std::fprintf(stderr, "scenario_runner: cannot write %s\n",
                 prom_path.c_str());
    return 2;
  }
  obs::write_prometheus(prom, series);
  std::printf("metrics: %s (%zu samples), %s\n", series_path.c_str(),
              series.size(), prom_path.c_str());
  return 0;
}

int run_list(const Options& o) {
  if (o.list_json && o.list_markdown) {
    usage_error("--list takes --json or --markdown, not both");
  }
  if (o.list_json) {
    list_catalog_json();
  } else if (o.list_markdown) {
    list_catalog_markdown();
  } else {
    list_catalog();
  }
  return 0;
}

int run_replay(const Options& o) {
  const std::string& path = o.target;
  std::string error;
  const auto loaded = check::load_trace_file(path, error);
  if (!loaded) {
    std::fprintf(stderr, "scenario_runner: --replay: %s\n", error.c_str());
    return 2;
  }
  if (o.metrics_out) {
    // Offline re-analysis: the samples are already in the trace, so no
    // re-execution is needed to export them.
    obs::SeriesCollector collector;
    for (const check::TraceEvent& e : loaded->events) {
      collector.on_trace_event(e);
    }
    const obs::Series series = collector.take();
    std::printf("extracting metrics from %s: %zu samples of %zu events\n",
                path.c_str(), series.size(), loaded->events.size());
    return write_metrics_artifacts(*o.metrics_out, series);
  }
  std::printf("replaying %s: scenario '%s', seed %llu, %zu recorded "
              "events\n",
              path.c_str(), loaded->scenario.name.c_str(),
              static_cast<unsigned long long>(loaded->scenario.seed),
              loaded->events.size());
  const check::ReplayResult r = check::replay(loaded->scenario, *loaded);
  if (r.result.checks.checked) report_checks(r.result.checks);
  if (!r.matches) {
    std::fprintf(stderr, "replay DIVERGED: %s\n", r.divergence.c_str());
    return 4;
  }
  std::printf("replay matches the recording: %zu events, bit for bit\n",
              r.trace.events.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Scenario files & baseline gates (docs/scenario-files.md)

/// The gated registry tier: everything below the big-* threshold, plus the
/// big-* entries when asked (they cost minutes of wall time each).
std::vector<Scenario> registry_tier(bool include_big) {
  std::vector<Scenario> out;
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    if (include_big || s.cluster_size < 1000) out.push_back(s);
  }
  return out;
}

/// One file's strict validation, dispatched on the canonical filename:
/// baselines.json is the band document, coverage.json the fuzz coverage
/// report, everything else a scenario.
bool validate_one(const std::filesystem::path& path, std::string& error) {
  if (path.filename() == "baselines.json") {
    return load_baselines_file(path.string(), error).has_value();
  }
  if (path.filename() == "coverage.json") {
    return fuzz::load_coverage_report(path.string(), error).has_value();
  }
  return ScenarioFile::load(path.string(), error).has_value();
}

int run_validate_scenarios(const Options& o) {
  const std::string& target = o.target;
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  if (std::filesystem::is_directory(target, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(target)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr,
                   "scenario_runner: --validate-scenarios: no *.json files "
                   "under %s\n",
                   target.c_str());
      return 2;
    }
  } else {
    files.push_back(target);
  }
  int defects = 0;
  for (const auto& path : files) {
    std::string error;
    if (!validate_one(path, error)) {
      std::fprintf(stderr, "scenario_runner: %s\n", error.c_str());
      ++defects;
    }
  }
  if (defects > 0) {
    std::fprintf(stderr, "%d of %zu file(s) failed validation\n", defects,
                 files.size());
    return 2;
  }
  std::printf("%zu file(s) valid\n", files.size());
  return 0;
}

int run_record_baselines(const Options& o) {
  const std::vector<Scenario> all = registry_tier(o.include_big);
  std::printf("recording baselines for %zu scenario(s)...\n", all.size());
  std::vector<RunResult> results(all.size());
  parallel_for(all.size(), o.jobs,
               [&](std::size_t i) { results[i] = run(all[i]); });
  BaselineSet set;
  for (std::size_t i = 0; i < all.size(); ++i) {
    set.entries.push_back(record_baseline(all[i], results[i]));
  }
  std::string error;
  if (!save_baselines_file(set, o.target, error)) {
    std::fprintf(stderr, "scenario_runner: --record-baselines: %s\n",
                 error.c_str());
    return 2;
  }
  std::printf("recorded %zu baseline(s) to %s\n", set.entries.size(),
              o.target.c_str());
  return 0;
}

int run_gate_registry(const Options& o) {
  std::string error;
  const auto baselines = load_baselines_file(o.target, error);
  if (!baselines) {
    std::fprintf(stderr, "scenario_runner: --gate-registry: %s\n",
                 error.c_str());
    return 2;
  }
  const std::vector<Scenario> all = registry_tier(o.include_big);
  std::printf("gating %zu scenario(s) against %s...\n", all.size(),
              o.target.c_str());
  std::vector<RunResult> results(all.size());
  parallel_for(all.size(), o.jobs,
               [&](std::size_t i) { results[i] = run(all[i]); });
  int failures = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const GateReport report = gate_run(all[i], results[i], *baselines);
    std::printf("%s\n", report.describe().c_str());
    if (!report.passed) ++failures;
  }
  // A baseline whose scenario left the gated tier is stale data — catch
  // renames and deletions, not just metric drift.
  for (const ScenarioBaseline& e : baselines->entries) {
    const bool known = std::any_of(
        all.begin(), all.end(),
        [&](const Scenario& s) { return s.name == e.scenario; });
    if (!known) {
      std::printf("gate FAIL %s: baseline has no matching scenario in the "
                  "gated tier (re-record with tools/record-baselines.sh)\n",
                  e.scenario.c_str());
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "\n%d of %zu gate(s) failed\n", failures,
                 all.size());
    return 6;
  }
  std::printf("all %zu gate(s) passed\n", all.size());
  return 0;
}

int run_paper(const Options& o) {
  paper::Ledger ledger({o.full, o.reps.value_or(0), o.seed.value_or(42),
                        o.jobs});
  for (const paper::Artifact& a : paper::artifacts()) {
    if (o.target == "all" || a.name == o.target) ledger.print(a, stdout);
  }
  return 0;
}

int run_fuzz(const Options& o) {
  const Scenario base = compose(o);
  fuzz::EngineOptions opts;
  opts.trials = o.fuzz_trials;
  opts.seed = o.fuzz_seed;
  opts.jobs = o.fuzz_jobs;
  if (o.fuzz_out) opts.out_dir = *o.fuzz_out;
  std::printf("fuzz: %d trial(s), seed %llu, jobs=%s, base '%s' "
              "(%d nodes, membership=%s)\n",
              o.fuzz_trials, static_cast<unsigned long long>(o.fuzz_seed),
              o.fuzz_jobs == 0 ? "auto" : std::to_string(o.fuzz_jobs).c_str(),
              base.name.c_str(), base.cluster_size, base.membership.c_str());
  fuzz::Engine engine(base, opts);
  const fuzz::FuzzReport r = engine.run();
  std::printf("\nfuzz: %d trial(s) over %d generation(s) — %zu coverage "
              "key(s), digest %llu, corpus of %zu timeline(s)\n",
              r.trials, r.generations, r.coverage_keys,
              static_cast<unsigned long long>(r.coverage_digest),
              r.corpus_size);
  for (const fuzz::Finding& f : r.findings) {
    std::string invariants;
    for (const std::string& inv : f.invariants) {
      if (!invariants.empty()) invariants += ", ";
      invariants += inv;
    }
    std::printf("finding: %s (trial %d, shrunk to %zu timeline entr%s "
                "in %d round(s))%s%s\n",
                invariants.c_str(), f.trial_index,
                f.reproducer.timeline.size(),
                f.reproducer.timeline.size() == 1 ? "y" : "ies",
                f.shrink.rounds, f.file.empty() ? "" : " -> ",
                f.file.c_str());
  }
  if (!r.report_file.empty()) {
    std::printf("coverage report: %s (%zu corpus file(s))\n",
                r.report_file.c_str(), r.corpus_files.size());
  }
  if (!r.findings.empty()) {
    std::fprintf(stderr,
                 "\n%zu distinct invariant-violation signature(s) found — "
                 "replay a reproducer with --scenario-file FILE --check\n",
                 r.findings.size());
    return 3;
  }
  std::printf("no invariant violations in this budget\n");
  return 0;
}

int run_campaign(const Options& o) {
  const Scenario s = compose(o);
  Campaign camp;
  camp.name = s.name;
  camp.base = s;
  camp.repetitions = o.reps.value_or(5);
  camp.jobs = o.jobs;
  camp.base_seed = s.seed;

  std::vector<Reporter*> reporters;
  ProgressReporter meter(s.name);
  reporters.push_back(&meter);
  std::ofstream json_out, csv_out;
  std::optional<JsonlReporter> jsonl;
  std::optional<CsvReporter> csv;
  if (o.json) {
    json_out.open(*o.json);
    if (!json_out) usage_error("cannot open --json file " + *o.json);
    reporters.push_back(&jsonl.emplace(json_out));
  }
  if (o.csv) {
    csv_out.open(*o.csv);
    if (!csv_out) usage_error("cannot open --csv file " + *o.csv);
    reporters.push_back(&csv.emplace(csv_out));
  }

  std::printf("campaign: %d repetitions, jobs=%s\n\n", camp.repetitions,
              camp.jobs == 0 ? "auto" : std::to_string(camp.jobs).c_str());
  const CampaignResult result = run(camp, reporters);
  report_campaign(result);
  if (o.json) std::printf("\nJSONL artifact: %s\n", o.json->c_str());
  if (o.csv) std::printf("CSV artifact: %s\n", o.csv->c_str());
  if (o.metrics_out) {
    // Runner campaigns have one grid point; its folded bands are the
    // campaign's metric artifact.
    const auto& bands = result.points.front().series;
    ::mkdir(o.metrics_out->c_str(), 0755);
    const std::string bands_jsonl = *o.metrics_out + "/bands.jsonl";
    const std::string bands_csv = *o.metrics_out + "/bands.csv";
    std::ofstream bj(bands_jsonl), bc(bands_csv);
    if (!bj || !bc) {
      std::fprintf(stderr, "scenario_runner: cannot write under %s\n",
                   o.metrics_out->c_str());
      return 2;
    }
    obs::write_bands_jsonl(bj, bands);
    obs::write_bands_csv(bc, bands);
    std::printf("metrics: %s, %s (%zu bands over %d trials)\n",
                bands_jsonl.c_str(), bands_csv.c_str(), bands.size(),
                result.points.front().trials);
  }
  int violating = 0;
  for (const PointStats& ps : result.points) violating += ps.violating_trials;
  if (violating > 0) {
    std::fprintf(stderr,
                 "\n%d trial(s) violated protocol invariants — see the "
                 "per-trial artifacts\n",
                 violating);
    return 3;
  }
  return 0;
}

int run_single(const Options& o) {
  const bool live = o.backend == harness::Backend::kLive;
  if (o.given("--live-logs") && !live) {
    usage_error("--live-logs DIR keeps live workers' logs and needs "
                "--backend live");
  }
  if (o.gate && live) {
    usage_error("--gate checks one simulator run against its baseline and "
                "cannot combine with --backend live");
  }
  if (o.spans && !o.trace && !o.check) {
    usage_error("--spans records probe spans into the run's trace and needs "
                "--trace FILE or --check");
  }
  const Scenario s = compose(o);
  // Record whenever a trace was requested — and always under --check, so a
  // violation ships with its replayable reproducer.
  std::optional<check::TraceRecorder> recorder;
  std::vector<check::TraceSink*> sinks;
  if (o.trace || o.check) {
    recorder.emplace(s, /*include_datagrams=*/false,
                     /*include_probe_spans=*/o.spans);
    sinks.push_back(&*recorder);
  }
  harness::RunOptions run_opts;
  run_opts.backend = o.backend;
  if (o.timeout) run_opts.timeout = *o.timeout;
  run_opts.log_dir = o.live_logs;
  const RunResult r = run(s, run_opts, sinks);
  report(r);
  if (r.checks.checked) report_checks(r.checks);
  if (o.metrics_out) {
    const int rc = write_metrics_artifacts(*o.metrics_out, r.series);
    if (rc != 0) return rc;
  }

  std::string save_to;
  if (o.trace) {
    save_to = *o.trace;
  } else if (!r.checks.passed() && r.checks.checked) {
    save_to = s.name + "-violation.trace.jsonl";
  }
  if (!save_to.empty()) {
    std::string error;
    if (!check::save_trace_file(recorder->trace(), save_to, error)) {
      std::fprintf(stderr, "scenario_runner: %s\n", error.c_str());
      return 2;
    }
    std::printf("\ntrace: %s (%zu events; verify with --replay %s)\n",
                save_to.c_str(), recorder->trace().events.size(),
                save_to.c_str());
  }
  bool gate_failed = false;
  if (o.gate) {
    std::string error;
    const auto baselines = load_baselines_file(*o.gate, error);
    if (!baselines) {
      std::fprintf(stderr, "scenario_runner: --gate: %s\n", error.c_str());
      return 2;
    }
    const GateReport gr = gate_run(s, r, *baselines);
    std::printf("\n%s\n", gr.describe().c_str());
    gate_failed = !gr.passed;
  }
  if (r.checks.checked && !r.checks.passed()) return 3;
  return gate_failed ? 6 : 0;
}

// ---------------------------------------------------------------------------
// The mode table

/// One mode: the flag that selects it (empty for a single run), its name in
/// messages, every other flag it takes, and its handler.
struct Mode {
  std::string_view flag;
  std::string_view usage;
  std::vector<std::string_view> takes;
  int (*run)(const Options&);
};

/// The flags of every mode that runs a composed scenario: those compose()
/// reads but --fault and --seed (the fuzzer draws its own), and --timeout;
/// plus `more`.
std::vector<std::string_view> composing(
    std::initializer_list<std::string_view> more) {
  std::vector<std::string_view> flags = {
      "--scenario", "--scenario-file", "--nodes", "--config", "--membership",
      "--length", "--quiesce", "--alpha", "--beta", "--check",
      "--suspicion-cap", "--timeout"};
  flags.insert(flags.end(), more);
  return flags;
}

const Mode kModes[] = {
    {"--list", "--list", {"--json", "--markdown"}, run_list},
    {"--validate-scenarios", "--validate-scenarios PATH", {},
     run_validate_scenarios},
    {"--record-baselines", "--record-baselines FILE",
     {"--include-big", "--jobs"}, run_record_baselines},
    {"--gate-registry", "--gate-registry FILE", {"--include-big", "--jobs"},
     run_gate_registry},
    {"--paper", "--paper NAME|all", {"--full", "--reps", "--seed", "--jobs"},
     run_paper},
    {"--replay", "--replay FILE", {"--metrics-out"}, run_replay},
    {"--fuzz", "--fuzz N",
     composing({"--fuzz-seed", "--fuzz-out", "--fuzz-jobs"}), run_fuzz},
    {"--campaign", "--campaign",
     composing({"--fault", "--seed", "--reps", "--jobs", "--json", "--csv",
                "--metrics-out", "--metrics-interval"}),
     run_campaign},
    {"", "a single run",
     composing({"--fault", "--seed", "--trace", "--spans", "--metrics-out",
                "--metrics-interval", "--gate", "--backend", "--live-logs"}),
     run_single},
};

/// The one parse loop: each flag's value, checked for type and range, lands
/// in Options whatever the mode; pick_mode then applies the mode's rule.
Options parse(int argc, char** argv) {
  Options o;
  // Under --list, --json is a bare format flag; elsewhere it is --json FILE.
  const bool listing = std::find(argv + 1, argv + argc,
                                 std::string_view("--list")) != argv + argc;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    o.flags.push_back(arg);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--list" || arg == "--campaign") {
      // bare mode flags: pick_mode reads them from o.flags
    } else if (arg == "--json" && listing) {
      o.list_json = true;
    } else if (arg == "--markdown") {
      o.list_markdown = true;
    } else if (arg == "--fault") {
      std::string error;
      const auto entry = fault::parse_timeline_entry(next(), error);
      if (!entry) usage_error("--fault: " + error);
      o.faults.push_back(*entry);
    } else if (arg == "--scenario") {
      const std::string name = next();
      const Scenario* found = ScenarioRegistry::builtin().find(name);
      if (found == nullptr) {
        usage_error("unknown scenario '" + name +
                    "' — run with --list to see the catalog");
      }
      o.base = *found;
    } else if (arg == "--scenario-file") {
      std::string error;
      const auto loaded = ScenarioFile::load(next(), error);
      if (!loaded) usage_error("--scenario-file: " + error);
      o.base = *loaded;
    } else if (arg == "--validate-scenarios" || arg == "--record-baselines" ||
               arg == "--gate-registry" || arg == "--replay") {
      o.target = next();
    } else if (arg == "--paper") {
      o.target = next();
      if (o.target != "all" && paper::find(o.target) == nullptr) {
        usage_error("unknown --paper '" + o.target +
                    "' (expected all or one of: " + paper::names() + ")");
      }
    } else if (arg == "--gate") {
      o.gate = next();
    } else if (arg == "--full") {
      o.full = true;
    } else if (arg == "--include-big") {
      o.include_big = true;
    } else if (arg == "--nodes") {
      o.nodes = static_cast<int>(parse_int(arg, next(), 2, 4096));
    } else if (arg == "--config") {
      o.config = config_by_name(next());
    } else if (arg == "--membership") {
      std::string error;
      o.membership = next();
      if (!membership::parse_spec(*o.membership, &error)) {
        usage_error("--membership: " + error);
      }
    } else if (arg == "--length") {
      o.length = sec(parse_int(arg, next(), 1, 86400));
    } else if (arg == "--quiesce") {
      o.quiesce = sec(parse_int(arg, next(), 0, 3600));
    } else if (arg == "--alpha") {
      o.alpha = parse_double(arg, next(), 0.1, 1000.0);
    } else if (arg == "--beta") {
      o.beta = parse_double(arg, next(), 1.0, 1000.0);
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, next());
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--suspicion-cap") {
      o.check = true;
      o.suspicion_cap = msec(parse_int(arg, next(), 1, 86400000));
    } else if (arg == "--fuzz") {
      o.fuzz_trials = static_cast<int>(parse_int(arg, next(), 1, 1000000));
    } else if (arg == "--fuzz-seed") {
      o.fuzz_seed = parse_u64(arg, next());
    } else if (arg == "--fuzz-out") {
      o.fuzz_out = next();
    } else if (arg == "--fuzz-jobs") {
      o.fuzz_jobs = static_cast<int>(parse_int(arg, next(), 0, 1024));
    } else if (arg == "--trace") {
      o.trace = next();
    } else if (arg == "--metrics-out") {
      o.metrics_out = next();
    } else if (arg == "--metrics-interval") {
      o.metrics_interval = msec(parse_int(arg, next(), 1, 86400000));
    } else if (arg == "--spans") {
      o.spans = true;
    } else if (arg == "--reps") {
      o.reps = static_cast<int>(parse_int(arg, next(), 1, 100000));
    } else if (arg == "--jobs") {
      o.jobs = static_cast<int>(parse_int(arg, next(), 0, 1024));
    } else if (arg == "--json") {
      o.json = next();
    } else if (arg == "--csv") {
      o.csv = next();
    } else if (arg == "--backend") {
      const std::string name = next();
      const auto b = harness::backend_from_name(name);
      if (!b) usage_error("unknown --backend '" + name + "' (sim|live)");
      o.backend = *b;
    } else if (arg == "--timeout") {
      o.timeout = sec(parse_int(arg, next(), 1, 86400));
    } else if (arg == "--live-logs") {
      o.live_logs = next();
    } else {
      usage_error("unknown option " + arg);
    }
  }
  return o;
}

/// The mode the command line selects (the first row whose flag it gives,
/// else a single run). Exits 2 on any flag that row does not list, and on
/// any flag but --fault given twice.
const Mode& pick_mode(const Options& o) {
  const Mode* mode =
      std::find_if(std::begin(kModes), std::end(kModes) - 1,
                   [&o](const Mode& m) { return o.given(m.flag); });
  for (const std::string& f : o.flags) {
    if (f != mode->flag &&
        std::find(mode->takes.begin(), mode->takes.end(), f) ==
            mode->takes.end()) {
      usage_error(std::string(mode->usage) + " does not take " + f);
    }
    if (f != "--fault" && std::count(o.flags.begin(), o.flags.end(), f) > 1) {
      usage_error(f + " given twice");
    }
  }
  if (o.given("--scenario") && o.given("--scenario-file")) {
    usage_error("--scenario and --scenario-file both set the base scenario; "
                "give one of them");
  }
  return *mode;
}

/// Set when main returns, so the --timeout watchdog stands down.
std::atomic<bool> finished{false};

/// --timeout's hard wall-clock ceiling on the whole invocation: on expiry
/// every registered live worker is SIGKILLed, so no orphans survive, and the
/// runner exits 5.
void arm_watchdog(Duration limit) {
  std::thread([limit] {
    const std::int64_t deadline = net::steady_now_ns() + limit.us * 1000;
    while (net::steady_now_ns() < deadline) {
      if (finished.load()) return;
      ::usleep(50 * 1000);
    }
    if (finished.load()) return;
    std::fprintf(stderr,
                 "scenario_runner: watchdog expired after %.0fs — killing "
                 "workers\n",
                 limit.seconds());
    live::emergency_teardown();
    std::_Exit(5);
  }).detach();
}

}  // namespace

int main(int argc, char** argv) {
  int rc = 2;
  try {
    const Options o = parse(argc, argv);
    const Mode& mode = pick_mode(o);
    if (o.timeout) arm_watchdog(*o.timeout);
    rc = mode.run(o);
  } catch (const live::TimeoutError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    live::emergency_teardown();
    rc = 5;
  } catch (const ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
  }
  finished.store(true);
  return rc;
}
