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
//     --alpha A --beta B suspicion tuning            (default 5 / 6)
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
//       (probe-start/ack/indirect/fail/nack) into --trace recordings.
//
//   ./examples/scenario_runner --backend live [flags]
//       Execute the scenario on the live tier (src/live) instead of the
//       simulator: every member is a real OS process speaking real UDP on
//       loopback, faults are applied with signals and the userspace netem
//       shim, and the same invariants check the merged live event stream.
//       --backend sim (the default) picks the simulator. Extra live flags:
//     --timeout S        wall-clock watchdog: on expiry every worker is
//                        SIGKILLed and the runner exits 5 (no orphans)
//     --live-logs DIR    write each worker's stderr to DIR/node-N.log
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
//       --trace and --campaign compose with it. Malformed files are
//       rejected with a message naming the offending key/value.
//
//   ./examples/scenario_runner --export-scenarios DIR
//       Write every registry scenario to DIR/<name>.json (the committed
//       scenarios/ tree; CI re-exports and fails when it is stale).
//       Like every registry subcommand below (--validate-scenarios,
//       --record-baselines, --gate-registry, --paper) and --replay, it
//       refuses any flag it does not list, and any listed flag given twice.
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
//       invariant suite is force-enabled). Every violation is
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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
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

/// A one-per-invocation subcommand's flag rule: every flag in `given` (the
/// command line's flags, in order) is `subcommand` or one of `allowed`, and
/// none appears twice. Otherwise exits 2 with `usage` and the flag at fault.
void only_flags(const std::vector<std::string>& given,
                const std::string& subcommand,
                std::initializer_list<std::string_view> allowed,
                const std::string& usage) {
  for (const std::string& flag : given) {
    if (flag != subcommand &&
        std::find(allowed.begin(), allowed.end(), flag) == allowed.end()) {
      usage_error(usage + " (got " + flag + ")");
    }
    if (std::count(given.begin(), given.end(), flag) > 1) {
      usage_error(usage + " (got " + flag + " twice)");
    }
  }
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

int run_replay(const std::string& path,
               const std::optional<std::string>& metrics_out) {
  std::string error;
  const auto loaded = check::load_trace_file(path, error);
  if (!loaded) {
    std::fprintf(stderr, "scenario_runner: --replay: %s\n", error.c_str());
    return 2;
  }
  if (metrics_out) {
    // Offline re-analysis: the samples are already in the trace, so no
    // re-execution is needed to export them.
    obs::SeriesCollector collector;
    for (const check::TraceEvent& e : loaded->events) {
      collector.on_trace_event(e);
    }
    const obs::Series series = collector.take();
    std::printf("extracting metrics from %s: %zu samples of %zu events\n",
                path.c_str(), series.size(), loaded->events.size());
    return write_metrics_artifacts(*metrics_out, series);
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

/// Run every scenario on a worker pool (the campaign-trial pattern: runs
/// are independent and deterministic, so results are order-free).
std::vector<RunResult> run_registry(const std::vector<Scenario>& all,
                                    int jobs) {
  std::vector<RunResult> results(all.size());
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min<std::size_t>(
      jobs > 0 ? static_cast<std::size_t>(jobs)
               : std::max(1u, std::thread::hardware_concurrency()),
      std::max<std::size_t>(1, all.size()));
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= all.size()) return;
        results[i] = run(all[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  return results;
}

int run_export_scenarios(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const auto& all = ScenarioRegistry::builtin().all();
  for (const Scenario& s : all) {
    std::string error;
    if (!ScenarioFile::save(s, dir + "/" + ScenarioFile::filename(s),
                            error)) {
      std::fprintf(stderr, "scenario_runner: --export-scenarios: %s\n",
                   error.c_str());
      return 2;
    }
  }
  std::printf("exported %zu scenario files to %s/\n", all.size(),
              dir.c_str());
  return 0;
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

int run_validate_scenarios(const std::string& target) {
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

int run_record_baselines(const std::string& file, bool include_big,
                         int jobs) {
  const std::vector<Scenario> all = registry_tier(include_big);
  std::printf("recording baselines for %zu scenario(s)...\n", all.size());
  const std::vector<RunResult> results = run_registry(all, jobs);
  BaselineSet set;
  for (std::size_t i = 0; i < all.size(); ++i) {
    set.entries.push_back(record_baseline(all[i], results[i]));
  }
  std::string error;
  if (!save_baselines_file(set, file, error)) {
    std::fprintf(stderr, "scenario_runner: --record-baselines: %s\n",
                 error.c_str());
    return 2;
  }
  std::printf("recorded %zu baseline(s) to %s\n", set.entries.size(),
              file.c_str());
  return 0;
}

int run_gate_registry(const std::string& file, bool include_big, int jobs) {
  std::string error;
  const auto baselines = load_baselines_file(file, error);
  if (!baselines) {
    std::fprintf(stderr, "scenario_runner: --gate-registry: %s\n",
                 error.c_str());
    return 2;
  }
  const std::vector<Scenario> all = registry_tier(include_big);
  std::printf("gating %zu scenario(s) against %s...\n", all.size(),
              file.c_str());
  const std::vector<RunResult> results = run_registry(all, jobs);
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

int run_fuzz(const Scenario& base, int trials, std::uint64_t fuzz_seed,
             const std::optional<std::string>& out_dir, int fuzz_jobs) {
  fuzz::EngineOptions opts;
  opts.trials = trials;
  opts.seed = fuzz_seed;
  opts.jobs = fuzz_jobs;
  if (out_dir) opts.out_dir = *out_dir;
  std::printf("fuzz: %d trial(s), seed %llu, jobs=%s, base '%s' "
              "(%d nodes, membership=%s)\n",
              trials, static_cast<unsigned long long>(fuzz_seed),
              fuzz_jobs == 0 ? "auto" : std::to_string(fuzz_jobs).c_str(),
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

}  // namespace

int main(int argc, char** argv) {
  // Catalog mode is handled up front so `--json` can be a bare flag here
  // while remaining `--json FILE` in campaign mode.
  {
    bool list_mode = false, json_mode = false, markdown_mode = false;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--list") == 0) list_mode = true;
      if (std::strcmp(argv[i], "--json") == 0) json_mode = true;
      if (std::strcmp(argv[i], "--markdown") == 0) markdown_mode = true;
    }
    if (list_mode) {
      if (json_mode) {
        list_catalog_json();
      } else if (markdown_mode) {
        list_catalog_markdown();
      } else {
        list_catalog();
      }
      return 0;
    }
  }

  Scenario s;
  s.name = "custom";
  s.summary = "ad-hoc scenario composed from flags";
  s.cluster_size = 64;
  s.config = swim::Config::lifeguard();
  s.run_length = sec(120);
  bool ad_hoc = true;  // no --scenario / --scenario-file base

  // Flag values are collected first and applied on top of the base scenario
  // (the catalog entry or the ad-hoc default) so order doesn't matter.
  std::optional<double> alpha, beta;
  std::optional<int> nodes;
  std::optional<Duration> length, quiesce;
  std::optional<std::uint64_t> seed;
  std::optional<std::string> config_name, membership;
  std::vector<fault::TimelineEntry> fault_entries;
  bool campaign_mode = false;
  bool check_mode = false;
  std::optional<int> reps;  // --campaign default 5; --paper: the grid's
  std::optional<int> jobs;  // default 0 = one worker per hardware thread
  std::optional<std::string> json_path, csv_path, trace_path, replay_path;
  std::optional<std::string> export_dir, validate_path, record_path;
  std::optional<std::string> gate_path, gate_registry_path, paper_name;
  bool full = false;
  bool include_big = false;
  std::optional<std::string> metrics_out;
  std::optional<Duration> metrics_interval;
  bool spans = false;
  std::optional<Duration> suspicion_cap;
  std::optional<int> fuzz_trials;
  std::uint64_t fuzz_seed = 1;
  std::optional<std::string> fuzz_out;
  int fuzz_jobs = 0;  // 0 = one worker per hardware thread
  harness::Backend backend = harness::Backend::kSim;
  std::optional<Duration> watchdog_timeout;
  std::string live_logs = "live-logs";
  std::vector<std::string> flags;  // as given, without their values

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flags.push_back(arg);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--fault") {
      std::string error;
      const auto entry = fault::parse_timeline_entry(next(), error);
      if (!entry) usage_error("--fault: " + error);
      fault_entries.push_back(*entry);
    } else if (arg == "--scenario") {
      const std::string name = next();
      const Scenario* found = ScenarioRegistry::builtin().find(name);
      if (found == nullptr) {
        usage_error("unknown scenario '" + name +
                    "' — run with --list to see the catalog");
      }
      s = *found;
      ad_hoc = false;
    } else if (arg == "--scenario-file") {
      std::string error;
      const auto loaded = ScenarioFile::load(next(), error);
      if (!loaded) usage_error("--scenario-file: " + error);
      s = *loaded;
      ad_hoc = false;
    } else if (arg == "--export-scenarios") {
      export_dir = next();
    } else if (arg == "--validate-scenarios") {
      validate_path = next();
    } else if (arg == "--record-baselines") {
      record_path = next();
    } else if (arg == "--gate") {
      gate_path = next();
    } else if (arg == "--gate-registry") {
      gate_registry_path = next();
    } else if (arg == "--paper") {
      paper_name = next();
      if (*paper_name != "all" && paper::find(*paper_name) == nullptr) {
        usage_error("unknown --paper '" + *paper_name +
                    "' (expected all or one of: " + paper::names() + ")");
      }
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--include-big") {
      include_big = true;
    } else if (arg == "--nodes") {
      nodes = static_cast<int>(parse_int(arg, next(), 2, 4096));
    } else if (arg == "--config") {
      config_name = next();
    } else if (arg == "--membership") {
      std::string error;
      membership = next();
      if (!membership::parse_spec(*membership, &error)) {
        usage_error("--membership: " + error);
      }
    } else if (arg == "--length") {
      length = sec(parse_int(arg, next(), 1, 86400));
    } else if (arg == "--quiesce") {
      quiesce = sec(parse_int(arg, next(), 0, 3600));
    } else if (arg == "--alpha") {
      alpha = parse_double(arg, next(), 0.1, 1000.0);
    } else if (arg == "--beta") {
      beta = parse_double(arg, next(), 1.0, 1000.0);
    } else if (arg == "--seed") {
      seed = parse_u64(arg, next());
    } else if (arg == "--campaign") {
      campaign_mode = true;
    } else if (arg == "--check") {
      check_mode = true;
    } else if (arg == "--suspicion-cap") {
      check_mode = true;
      suspicion_cap = msec(parse_int(arg, next(), 1, 86400000));
    } else if (arg == "--fuzz") {
      fuzz_trials = static_cast<int>(parse_int(arg, next(), 1, 1000000));
    } else if (arg == "--fuzz-seed") {
      fuzz_seed = parse_u64(arg, next());
    } else if (arg == "--fuzz-out") {
      fuzz_out = next();
    } else if (arg == "--fuzz-jobs") {
      fuzz_jobs = static_cast<int>(parse_int(arg, next(), 0, 1024));
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--metrics-interval") {
      metrics_interval = msec(parse_int(arg, next(), 1, 86400000));
    } else if (arg == "--spans") {
      spans = true;
    } else if (arg == "--reps") {
      reps = static_cast<int>(parse_int(arg, next(), 1, 100000));
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(parse_int(arg, next(), 0, 1024));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--backend") {
      const std::string name = next();
      const auto b = harness::backend_from_name(name);
      if (!b) usage_error("unknown --backend '" + name + "' (sim|live)");
      backend = *b;
    } else if (arg == "--timeout") {
      watchdog_timeout = sec(parse_int(arg, next(), 1, 86400));
    } else if (arg == "--live-logs") {
      live_logs = next();
    } else {
      usage_error("unknown option " + arg);
    }
  }

  // The registry-wide subcommands don't run the composed scenario; they are
  // dispatched here, one per invocation.
  {
    const int subcommands = (export_dir ? 1 : 0) + (validate_path ? 1 : 0) +
                            (record_path ? 1 : 0) +
                            (gate_registry_path ? 1 : 0) +
                            (paper_name ? 1 : 0);
    if (subcommands > 1) {
      usage_error("--export-scenarios, --validate-scenarios, "
                  "--record-baselines, --gate-registry and --paper are "
                  "one-per-invocation subcommands");
    }
    if (full && !paper_name) {
      usage_error("--full selects the paper's full grids and needs --paper");
    }
    if (export_dir) {
      only_flags(flags, "--export-scenarios", {},
                 "--export-scenarios DIR takes no other flag");
      return run_export_scenarios(*export_dir);
    }
    if (validate_path) {
      only_flags(flags, "--validate-scenarios", {},
                 "--validate-scenarios PATH takes no other flag");
      return run_validate_scenarios(*validate_path);
    }
    if (record_path) {
      only_flags(flags, "--record-baselines", {"--include-big", "--jobs"},
                 "--record-baselines FILE takes only --include-big and "
                 "--jobs N, each at most once");
      return run_record_baselines(*record_path, include_big,
                                  jobs.value_or(0));
    }
    if (gate_registry_path) {
      only_flags(flags, "--gate-registry", {"--include-big", "--jobs"},
                 "--gate-registry FILE takes only --include-big and --jobs "
                 "N, each at most once");
      return run_gate_registry(*gate_registry_path, include_big,
                               jobs.value_or(0));
    }
    if (paper_name) {
      only_flags(flags, "--paper", {"--full", "--reps", "--seed", "--jobs"},
                 "--paper NAME takes only --full, --reps N, --seed S and "
                 "--jobs N, each at most once");
      paper::Ledger ledger({full, reps.value_or(0), seed.value_or(42),
                            jobs.value_or(0)});
      for (const paper::Artifact& a : paper::artifacts()) {
        if (*paper_name == "all" || a.name == *paper_name) {
          ledger.print(a, stdout);
        }
      }
      return 0;
    }
  }
  if (gate_path && (campaign_mode || replay_path ||
                    backend != harness::Backend::kSim)) {
    usage_error("--gate checks one simulator run against its baseline — "
                "it cannot combine with --campaign, --replay or "
                "--backend live");
  }

  if (replay_path) {
    only_flags(flags, "--replay", {"--metrics-out"},
               "--replay FILE re-executes a recorded trace and takes no "
               "other flags (except --metrics-out DIR for offline metric "
               "extraction) — the trace header is the scenario");
    return run_replay(*replay_path, metrics_out);
  }

  if (nodes) s.cluster_size = *nodes;
  if (length) s.run_length = *length;
  if (quiesce) s.quiesce = *quiesce;
  if (seed) s.seed = *seed;
  if (config_name) s.config = config_by_name(*config_name);
  if (membership) s.membership = *membership;
  if (s.config.lha_suspicion) {
    if (alpha) s.config.suspicion_alpha = *alpha;
    if (beta) s.config.suspicion_beta = *beta;
  }
  if (!fault_entries.empty()) {
    s.timeline = fault::Timeline{};
    for (fault::TimelineEntry& e : fault_entries) s.timeline.add(std::move(e));
  } else if (ad_hoc) {
    s.timeline.add(Duration{}, s.run_length,
                   fault::Fault::interval_block(msec(16384), msec(4)),
                   fault::VictimSelector::uniform(8));
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

  if (check_mode) s.checks = check::Spec::all();
  if (suspicion_cap) s.checks.suspicion_cap = *suspicion_cap;
  if (metrics_interval) {
    s.metrics_interval = *metrics_interval;
  } else if (metrics_out && s.metrics_interval <= Duration{0}) {
    s.metrics_interval = msec(500);
  }

  if (fuzz_trials) {
    if (campaign_mode || trace_path || gate_path || metrics_out ||
        backend != harness::Backend::kSim) {
      usage_error("--fuzz is its own simulator-only mode and cannot combine "
                  "with --campaign, --trace, --gate, --metrics-out or "
                  "--backend live");
    }
    try {
      return run_fuzz(s, *fuzz_trials, fuzz_seed, fuzz_out, fuzz_jobs);
    } catch (const ScenarioError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "scenario_runner: %s\n", e.what());
      return 2;
    }
  }

  if (backend == harness::Backend::kLive && campaign_mode) {
    usage_error("--campaign is simulator-only: a statistical sweep needs the "
                "determinism and speed a real-process cluster cannot offer");
  }
  if (backend == harness::Backend::kLive &&
      membership::base_name(s.membership) != "swim") {
    usage_error("the live tier only runs the swim backend — '" + s.membership +
                "' is simulator-only");
  }

  // Watchdog: a hard wall-clock ceiling on the whole invocation. On expiry
  // every registered worker is SIGKILLed so no orphans survive, then the
  // runner exits 5. Armed only when --timeout is given.
  static std::atomic<bool> finished{false};
  if (watchdog_timeout) {
    const Duration limit = *watchdog_timeout;
    std::thread([limit] {
      const std::int64_t deadline =
          net::steady_now_ns() + limit.us * 1000;
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

  try {
    if (campaign_mode) {
      if (trace_path) {
        usage_error("--trace records one run and cannot be combined with "
                    "--campaign (per-trial verdicts land in --json/--csv)");
      }
      Campaign camp;
      camp.name = s.name;
      camp.base = s;
      camp.repetitions = reps.value_or(5);
      camp.jobs = jobs.value_or(0);
      camp.base_seed = s.seed;

      std::vector<Reporter*> reporters;
      ProgressReporter meter(s.name);
      reporters.push_back(&meter);
      std::ofstream json_out, csv_out;
      std::optional<JsonlReporter> jsonl;
      std::optional<CsvReporter> csv;
      if (json_path) {
        json_out.open(*json_path);
        if (!json_out) usage_error("cannot open --json file " + *json_path);
        reporters.push_back(&jsonl.emplace(json_out));
      }
      if (csv_path) {
        csv_out.open(*csv_path);
        if (!csv_out) usage_error("cannot open --csv file " + *csv_path);
        reporters.push_back(&csv.emplace(csv_out));
      }

      std::printf("campaign: %d repetitions, jobs=%s\n\n", camp.repetitions,
                  camp.jobs == 0 ? "auto"
                                 : std::to_string(camp.jobs).c_str());
      const CampaignResult result = run(camp, reporters);
      report_campaign(result);
      if (json_path) std::printf("\nJSONL artifact: %s\n", json_path->c_str());
      if (csv_path) std::printf("CSV artifact: %s\n", csv_path->c_str());
      if (metrics_out) {
        // Runner campaigns have one grid point; its folded bands are the
        // campaign's metric artifact.
        const auto& bands = result.points.front().series;
        ::mkdir(metrics_out->c_str(), 0755);
        const std::string bands_jsonl = *metrics_out + "/bands.jsonl";
        const std::string bands_csv = *metrics_out + "/bands.csv";
        std::ofstream bj(bands_jsonl), bc(bands_csv);
        if (!bj || !bc) {
          std::fprintf(stderr, "scenario_runner: cannot write under %s\n",
                       metrics_out->c_str());
          return 2;
        }
        obs::write_bands_jsonl(bj, bands);
        obs::write_bands_csv(bc, bands);
        std::printf("metrics: %s, %s (%zu bands over %d trials)\n",
                    bands_jsonl.c_str(), bands_csv.c_str(), bands.size(),
                    result.points.front().trials);
      }
      int violating = 0;
      for (const PointStats& ps : result.points) {
        violating += ps.violating_trials;
      }
      if (violating > 0) {
        std::fprintf(stderr,
                     "\n%d trial(s) violated protocol invariants — see the "
                     "per-trial artifacts\n",
                     violating);
        return 3;
      }
    } else {
      if (json_path || csv_path) {
        usage_error("--json/--csv require --campaign (artifacts describe "
                    "multi-trial runs)");
      }
      // Record whenever a trace was requested — and always under --check,
      // so a violation ships with its replayable reproducer.
      std::optional<check::TraceRecorder> recorder;
      std::vector<check::TraceSink*> sinks;
      if (trace_path || check_mode) {
        recorder.emplace(s, /*include_datagrams=*/false,
                         /*include_probe_spans=*/spans);
        sinks.push_back(&*recorder);
      }
      harness::RunOptions run_opts;
      run_opts.backend = backend;
      if (watchdog_timeout) run_opts.timeout = *watchdog_timeout;
      run_opts.log_dir = live_logs;
      const RunResult r = run(s, run_opts, sinks);
      report(r);
      if (r.checks.checked) report_checks(r.checks);
      if (metrics_out) {
        const int rc = write_metrics_artifacts(*metrics_out, r.series);
        if (rc != 0) return rc;
      }

      std::string save_to;
      if (trace_path) {
        save_to = *trace_path;
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
      if (gate_path) {
        std::string error;
        const auto baselines = load_baselines_file(*gate_path, error);
        if (!baselines) {
          std::fprintf(stderr, "scenario_runner: --gate: %s\n",
                       error.c_str());
          finished.store(true);
          return 2;
        }
        const GateReport gr = gate_run(s, r, *baselines);
        std::printf("\n%s\n", gr.describe().c_str());
        gate_failed = !gr.passed;
      }
      if (r.checks.checked && !r.checks.passed()) {
        finished.store(true);
        return 3;
      }
      if (gate_failed) {
        finished.store(true);
        return 6;
      }
    }
  } catch (const live::TimeoutError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    live::emergency_teardown();
    return 5;
  } catch (const ScenarioError& e) {
    finished.store(true);
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  finished.store(true);
  return 0;
}
