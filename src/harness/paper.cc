#include "harness/paper.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "harness/report.h"

namespace lifeguard::harness::paper {

namespace {

// ---------------------------------------------------------------------------
// Grids

// Tables II and III, verbatim.
const std::vector<int> kPaperC = {1, 4, 8, 12, 16, 20, 24, 28, 32};
const std::vector<Duration> kPaperD = {msec(128),  msec(512),   msec(2048),
                                       msec(8192), msec(16384), msec(32768)};
const std::vector<Duration> kPaperI = {msec(1),   msec(4),    msec(16),
                                       msec(64),  msec(256),  msec(1024),
                                       msec(4096), msec(16384)};

int repetitions(const Options& opt, int quick, int full = 10) {
  if (opt.reps > 0) return opt.reps;
  return opt.full ? full : quick;
}

Campaign grid_on(const char* registry_name, const Options& opt) {
  Campaign c;
  c.base = *ScenarioRegistry::builtin().find(registry_name);
  c.base_seed = opt.seed;
  c.jobs = opt.jobs;
  return c;
}

/// Sweeps one span of the interval anomaly (salt = microseconds).
Axis span_axis(std::string name, const std::vector<Duration>& values,
               Duration fault::Fault::*span) {
  Axis a = Axis::custom(std::move(name), {});
  for (Duration d : values) {
    a.points.push_back(
        {std::to_string(d.us / 1000) + "ms", static_cast<std::uint64_t>(d.us),
         [d, span](Scenario& s) { s.timeline.entry(0).fault.*span = d; }});
  }
  return a;
}

/// A grid and the sweep key that names it.
struct Grid {
  std::string key;
  Campaign campaign;
};

/// The interval experiment (§V-D2): table4-false-positives with its victims
/// C, blocked span D and open gap I swept, salts {c, d_us, i_us}. Under
/// --full every interval grid is Table III, keyed "table3"; else the quick
/// grid given, keyed `key`.
Grid interval_grid(const Options& opt, std::string key, std::vector<int> c,
                   std::vector<Duration> d, std::vector<Duration> i) {
  if (opt.full) {
    key = "table3";
    c = kPaperC;
    d = kPaperD;
    i = kPaperI;
  }
  Campaign g = grid_on("table4-false-positives", opt);
  g.axes = {Axis::victims(c), span_axis("duration", d, &fault::Fault::period),
            span_axis("interval", i, &fault::Fault::gap)};
  g.repetitions = repetitions(opt, 1);
  return {std::move(key), std::move(g)};
}

/// The threshold experiment (§V-D1): table5-latency with its victims C and
/// block length D swept, observed for 70 s (105 s under --full: anomaly,
/// detection and recovery within the paper's 120 s). The trailing
/// single-point axis keeps the salt chain {c, d_us, 0}. Under --full every
/// threshold grid is Table II, keyed "table2"; else the quick grid given,
/// keyed `key`.
Grid threshold_grid(const Options& opt, std::string key, std::vector<int> c,
                    std::vector<Duration> d) {
  if (opt.full) {
    key = "table2";
    c = kPaperC;
    d = kPaperD;
  }
  Campaign g = grid_on("table5-latency", opt);
  g.base.run_length = opt.full ? sec(105) : sec(70);
  g.axes = {Axis::victims(c), Axis::timeline_duration(0, d),
            Axis::custom("interval", {{"0ms", 0, {}}})};
  g.repetitions = repetitions(opt, 2);
  return {std::move(key), std::move(g)};
}

/// `grid` once per config row, each campaign named after its row.
Sweep per_row(const Grid& grid, const std::vector<NamedConfig>& rows) {
  Sweep s{grid.key, {}};
  for (const NamedConfig& row : rows) {
    Campaign c = grid.campaign;
    c.name = row.name;
    c.base.config = row.config;
    s.campaigns.push_back(std::move(c));
  }
  return s;
}

// The quick interval grid is a representative slice of Table III: one
// sub-timeout duration (512 ms, no FPs expected), the two durations that
// straddle the SWIM suspicion timeout from above, and intervals spanning
// tight flapping to long recovery windows.
std::vector<Sweep> table1_interval(const Options& opt) {
  return {per_row(interval_grid(opt, "interval", {1, 8, 16, 32},
                                {msec(512), msec(16384), msec(32768)},
                                {msec(4), msec(256), msec(4096)}),
                  table1_configs())};
}

// Only D above the suspicion timeout yields completed true detections; the
// smaller D values, which confirm that none happens, stay in the full grid.
std::vector<Sweep> table1_threshold(const Options& opt) {
  return {per_row(threshold_grid(opt, "threshold", {1, 8, 16, 32},
                                 {msec(16384), msec(32768)}),
                  table1_configs())};
}

// Figs. 2 and 3 need every concurrency level; the quick grid narrows (D, I)
// to the large-D cells. Under --full this is Table III, the interval sweep.
std::vector<Sweep> table1_figure(const Options& opt) {
  return {per_row(interval_grid(opt, "figure", kPaperC,
                                {msec(16384), msec(32768)},
                                {msec(4), msec(256)}),
                  table1_configs())};
}

// ---------------------------------------------------------------------------
// Folds

Totals& operator+=(Totals& a, const RunResult& r) {
  a.fp += r.fp_events;
  a.fpm += r.fp_healthy_events;
  a.msgs += r.msgs_sent;
  a.bytes += r.bytes_sent;
  return a;
}

/// Totals per victims count C (the first axis), summed over the other axes.
std::vector<std::pair<std::string, Totals>> by_victims(
    const CampaignResult& r) {
  std::vector<std::pair<std::string, Totals>> out;
  for (const TrialResult& t : r.trials) {
    const std::string& c =
        r.points[static_cast<std::size_t>(t.point_index)].labels.front();
    if (out.empty() || out.back().first != c) out.push_back({c, {}});
    out.back().second += t.result;
  }
  return out;
}

struct Latency {
  Histogram first_detect;  ///< seconds
  Histogram full_dissem;   ///< seconds
};

Latency latency(const CampaignResult& r) {
  Latency l;
  for (const TrialResult& t : r.trials) {
    for (double s : t.result.first_detect) l.first_detect.record(s);
    for (double s : t.result.full_dissem) l.full_dissem.record(s);
  }
  return l;
}

/// A latency cell in seconds; "n/a" when no sample exists to rank (no
/// detection happened), never a made-up 0.00.
std::string fmt_latency(const Histogram& h, double q) {
  return h.count() == 0 ? "n/a" : fmt_double(h.percentile(q), 2);
}

/// A latency cell as a percentage of SWIM's.
std::string pct_latency(const Histogram& h, const Histogram& swim, double q) {
  if (h.count() == 0 || swim.count() == 0) return "n/a";
  return fmt_pct(h.percentile(q), swim.percentile(q));
}

std::string pct(std::int64_t v, std::int64_t base) {
  return fmt_pct(static_cast<double>(v), static_cast<double>(base));
}

std::string millions(std::int64_t msgs) {
  return fmt_double(static_cast<double>(msgs) / 1e6, 2);
}

// ---------------------------------------------------------------------------
// Tables IV–VII

Table table4_fold(const std::vector<const SweepResult*>& r) {
  Table t({"Configuration", "FP Events", "FP- Events", "FP % SWIM",
           "FP- % SWIM"});
  const Totals swim = totals(r[0]->front());
  for (const CampaignResult& row : *r[0]) {
    const Totals x = totals(row);
    t.add_row({row.campaign_name, fmt_int(x.fp), fmt_int(x.fpm),
               pct(x.fp, swim.fp), pct(x.fpm, swim.fpm)});
  }
  return t;
}

Table table5_fold(const std::vector<const SweepResult*>& r) {
  Table t({"Configuration", "Median 1st Detect", "99th % 1st Detect",
           "99.9th % 1st Detect", "Median Full Dissem", "99th % Full Dissem",
           "99.9th % Full Dissem", "Samples"});
  for (const CampaignResult& row : *r[0]) {
    const Latency l = latency(row);
    t.add_row({row.campaign_name, fmt_latency(l.first_detect, 0.50),
               fmt_latency(l.first_detect, 0.99),
               fmt_latency(l.first_detect, 0.999),
               fmt_latency(l.full_dissem, 0.50),
               fmt_latency(l.full_dissem, 0.99),
               fmt_latency(l.full_dissem, 0.999),
               fmt_int(static_cast<std::int64_t>(l.first_detect.count()))});
  }
  return t;
}

Table table6_fold(const std::vector<const SweepResult*>& r) {
  Table t({"Configuration", "Msgs Sent(M)", "Bytes Sent(GiB)", "Msgs % SWIM",
           "Bytes % SWIM"});
  const Totals swim = totals(r[0]->front());
  for (const CampaignResult& row : *r[0]) {
    const Totals x = totals(row);
    t.add_row({row.campaign_name, millions(x.msgs), fmt_bytes_gib(x.bytes),
               pct(x.msgs, swim.msgs), pct(x.bytes, swim.bytes)});
  }
  return t;
}

/// SWIM, then full Lifeguard under the nine (α, β) tunings of Table VII.
std::vector<NamedConfig> table7_rows() {
  std::vector<NamedConfig> rows{{"SWIM", swim::Config::swim_baseline()}};
  for (const double alpha : {2.0, 4.0, 5.0}) {
    for (const double beta : {2.0, 4.0, 6.0}) {
      swim::Config cfg = swim::Config::lifeguard();
      cfg.suspicion_alpha = alpha;
      cfg.suspicion_beta = beta;
      rows.push_back({"a=" + fmt_double(alpha, 0) + " b=" + fmt_double(beta, 0),
                      cfg});
    }
  }
  return rows;
}

std::vector<Sweep> table7_sweeps(const Options& opt) {
  const std::vector<NamedConfig> rows = table7_rows();
  return {per_row(threshold_grid(opt, "table7-threshold", {8},
                                 {msec(16384), msec(32768)}),
                  rows),
          per_row(interval_grid(opt, "table7-interval", {16},
                                {msec(8192), msec(32768)},
                                {msec(4), msec(256)}),
                  rows)};
}

/// Every metric of each tuning as a percentage of SWIM's (the first row):
/// latency from the threshold sweep, FP counts from the interval sweep.
Table table7_fold(const std::vector<const SweepResult*>& r) {
  std::vector<Latency> lat;
  for (const CampaignResult& row : *r[0]) lat.push_back(latency(row));
  std::vector<Totals> fp;
  for (const CampaignResult& row : *r[1]) fp.push_back(totals(row));

  std::vector<std::string> headers{"Metric (% of SWIM)"};
  for (std::size_t c = 1; c < r[0]->size(); ++c) {
    headers.push_back((*r[0])[c].campaign_name);
  }
  Table t(std::move(headers));
  const auto latency_row = [&](const char* name, Histogram Latency::*h,
                               double q) {
    std::vector<std::string> cells{name};
    for (std::size_t c = 1; c < lat.size(); ++c) {
      cells.push_back(pct_latency(lat[c].*h, lat[0].*h, q));
    }
    t.add_row(std::move(cells));
  };
  const auto count_row = [&](const char* name, std::int64_t Totals::*n) {
    std::vector<std::string> cells{name};
    for (std::size_t c = 1; c < fp.size(); ++c) {
      cells.push_back(pct(fp[c].*n, fp[0].*n));
    }
    t.add_row(std::move(cells));
  };
  latency_row("Med First", &Latency::first_detect, 0.50);
  latency_row("Med Full", &Latency::full_dissem, 0.50);
  latency_row("99% First", &Latency::first_detect, 0.99);
  latency_row("99% Full", &Latency::full_dissem, 0.99);
  latency_row("99.9% First", &Latency::first_detect, 0.999);
  latency_row("99.9% Full", &Latency::full_dissem, 0.999);
  count_row("FP", &Totals::fp);
  count_row("FP-", &Totals::fpm);
  return t;
}

// ---------------------------------------------------------------------------
// Figures 1–3

/// fig1-cpu-exhaustion with its stressed count swept and SWIM against
/// Lifeguard as a config axis: one campaign, salts {count, 0}.
std::vector<Sweep> fig1_sweeps(const Options& opt) {
  Campaign c = grid_on("fig1-cpu-exhaustion", opt);
  c.name = "fig1";
  c.axes = {Axis::victims({1, 2, 4, 8, 16, 32}),
            Axis::configs({{"SWIM", swim::Config::swim_baseline()},
                           {"Lifeguard", swim::Config::lifeguard()}})};
  c.repetitions = repetitions(opt, 2, 5);
  return {{"fig1", {std::move(c)}}};
}

Table fig1_fold(const std::vector<const SweepResult*>& r) {
  const CampaignResult& res = r[0]->front();
  const std::vector<Totals> cell = point_totals(res);
  Table t({"Stressed machines", "SWIM FP", "SWIM FP-", "Lifeguard FP",
           "Lifeguard FP-"});
  // Points run stressed-count-major, the config axis fastest.
  for (std::size_t p = 0; p + 1 < cell.size(); p += 2) {
    t.add_row({res.points[p].labels.front(), fmt_int(cell[p].fp),
               fmt_int(cell[p].fpm), fmt_int(cell[p + 1].fp),
               fmt_int(cell[p + 1].fpm)});
  }
  return t;
}

/// One series per configuration of `metric` against the concurrency C.
Table by_concurrency(const SweepResult& rows, std::int64_t Totals::*metric) {
  std::vector<std::string> headers{"Concurrent anomalies"};
  for (const auto& [c, x] : by_victims(rows.front())) {
    headers.push_back("C=" + c);
  }
  Table t(std::move(headers));
  for (const CampaignResult& row : rows) {
    std::vector<std::string> cells{row.campaign_name};
    for (const auto& [c, x] : by_victims(row)) {
      cells.push_back(fmt_int(x.*metric));
    }
    t.add_row(std::move(cells));
  }
  return t;
}

Table fig2_fold(const std::vector<const SweepResult*>& r) {
  return by_concurrency(*r[0], &Totals::fp);
}

Table fig3_fold(const std::vector<const SweepResult*>& r) {
  return by_concurrency(*r[0], &Totals::fpm);
}

// ---------------------------------------------------------------------------
// Ablations

std::vector<Sweep> nack_sweeps(const Options& opt) {
  swim::Config on = swim::Config::lifeguard();
  swim::Config off = on;
  off.nack_enabled = false;
  return {per_row(interval_grid(opt, "ablation-nack", {8, 16},
                                {msec(8192), msec(32768)}, {msec(4)}),
                  {{"Lifeguard (nack on)", on},
                   {"Lifeguard (nack off)", off}})};
}

Table nack_fold(const std::vector<const SweepResult*>& r) {
  Table t({"Configuration", "FP Events", "FP- Events", "Msgs Sent(M)",
           "Bytes Sent(GiB)"});
  for (const CampaignResult& row : *r[0]) {
    const Totals x = totals(row);
    t.add_row({row.campaign_name, fmt_int(x.fp), fmt_int(x.fpm),
               millions(x.msgs), fmt_bytes_gib(x.bytes)});
  }
  return t;
}

/// An ablation's two sweeps over one knob's values: FP and load from the
/// interval experiment, detection latency from the threshold experiment.
/// Every knob shares the two grids, so a default-valued row (K=3, S=8: plain
/// Lifeguard) runs once for all of them.
std::vector<Sweep> knob_sweeps(const Options& opt,
                               const std::vector<NamedConfig>& rows) {
  return {per_row(interval_grid(opt, "knob-interval", {16},
                                {msec(8192), msec(32768)}, {msec(4)}),
                  rows),
          per_row(threshold_grid(opt, "knob-threshold", {8}, {msec(32768)}),
                  rows)};
}

std::vector<Sweep> regossip_sweeps(const Options& opt) {
  std::vector<NamedConfig> rows;
  for (const int k : {0, 1, 3, 6}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_k = k;
    rows.push_back({std::to_string(k), cfg});
  }
  return knob_sweeps(opt, rows);
}

Table regossip_fold(const std::vector<const SweepResult*>& r) {
  Table t({"K", "FP Events", "FP- Events", "Msgs Sent(M)",
           "Median 1st Detect", "99.9th % 1st Detect"});
  for (std::size_t i = 0; i < r[0]->size(); ++i) {
    const Totals x = totals((*r[0])[i]);
    const Latency l = latency((*r[1])[i]);
    t.add_row({(*r[0])[i].campaign_name, fmt_int(x.fp), fmt_int(x.fpm),
               millions(x.msgs), fmt_latency(l.first_detect, 0.5),
               fmt_latency(l.first_detect, 0.999)});
  }
  return t;
}

const int kLhmLimits[] = {0, 2, 4, 8, 16};

std::vector<Sweep> lhm_sweeps(const Options& opt) {
  std::vector<NamedConfig> rows;
  for (const int s : kLhmLimits) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.lhm_max = s;
    rows.push_back({std::to_string(s), cfg});
  }
  return knob_sweeps(opt, rows);
}

Table lhm_fold(const std::vector<const SweepResult*>& r) {
  Table t({"S", "Max backoff", "FP Events", "Msgs Sent(M)",
           "Median 1st Detect", "99.9th % 1st Detect"});
  for (std::size_t i = 0; i < r[0]->size(); ++i) {
    const Totals x = totals((*r[0])[i]);
    const Latency l = latency((*r[1])[i]);
    t.add_row({(*r[0])[i].campaign_name,
               std::to_string(kLhmLimits[i] + 1) + "x", fmt_int(x.fp),
               millions(x.msgs), fmt_latency(l.first_detect, 0.5),
               fmt_latency(l.first_detect, 0.999)});
  }
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// The ledger

Totals totals(const CampaignResult& r) {
  Totals x;
  for (const TrialResult& t : r.trials) x += t.result;
  return x;
}

std::vector<Totals> point_totals(const CampaignResult& r) {
  std::vector<Totals> out(r.points.size());
  for (const TrialResult& t : r.trials) {
    out[static_cast<std::size_t>(t.point_index)] += t.result;
  }
  return out;
}

const std::vector<Artifact>& artifacts() {
  static const std::vector<Artifact> all = {
      {"table4", "Table IV — Aggregated false positives",
       "Dadgar et al., DSN'18, Table IV (alpha=5, beta=6)",
       "Paper (Table IV): SWIM FP=339002 FP-=1326; Lifeguard 1.53% / 1.89% "
       "of SWIM;\nLHA-Suspicion is the largest single contributor.\n",
       table1_interval, table4_fold},
      {"table5", "Table V — Detection & dissemination latency",
       "Dadgar et al., DSN'18, Table V (alpha=5, beta=6)",
       "All times in seconds from anomaly start.\nPaper (Table V): medians "
       "~12.44 s detect / ~12.90 s disseminate for\nevery configuration; "
       "Lifeguard adds ~6-9% at the 99/99.9th percentiles.\n",
       table1_threshold, table5_fold},
      {"table6", "Table VI — Message load",
       "Dadgar et al., DSN'18, Table VI (alpha=5, beta=6)",
       "Paper (Table VI): Lifeguard sends ~11% more messages but ~2% fewer\n"
       "bytes than SWIM; LHA-Suspicion adds load, LHA-Probe removes some.\n",
       table1_interval, table6_fold},
      {"table7", "Table VII — alpha/beta suspicion-timeout tuning",
       "Dadgar et al., DSN'18, Table VII",
       "Paper (Table VII): latency scales with alpha (a=2 cuts median "
       "~45%);\nFP and FP- fall as alpha/beta rise; a=5 b=6 keeps "
       "SWIM-level medians\nwith the largest FP reduction.\n",
       table7_sweeps, table7_fold},
      {"fig1", "Figure 1 — False positives from CPU exhaustion",
       "Dadgar et al., DSN'18, Fig. 1",
       "Paper (Fig. 1): SWIM shows false positives from a single overloaded\n"
       "member and hundreds at healthy members from 4+; Lifeguard stays at\n"
       "or near zero until far higher stress levels.\n",
       fig1_sweeps, fig1_fold},
      {"fig2", "Figure 2 — Total false positives vs concurrency",
       "Dadgar et al., DSN'18, Fig. 2 (alpha=5, beta=6)",
       "Paper (Fig. 2): FP rises with concurrency for every configuration;\n"
       "full Lifeguard sits 50-100x below SWIM at every level.\n",
       table1_figure, fig2_fold},
      {"fig3", "Figure 3 — False positives at healthy members vs concurrency",
       "Dadgar et al., DSN'18, Fig. 3 (alpha=5, beta=6)",
       "Paper (Fig. 3): FP- events are rare tail events (orders of magnitude\n"
       "below FP); several concurrency levels record zero under Lifeguard —\n"
       "expect zeros in the quick grid.\n",
       table1_figure, fig3_fold},
      {"ablation-nack", "Ablation — LHA-Probe with and without nack",
       "design choice from paper §IV-A (footnote 5)",
       "Expectation: disabling nack removes some messages but weakens the\n"
       "LHM signal at slow members (missed-nack events vanish).\n",
       nack_sweeps, nack_fold},
      {"ablation-regossip", "Ablation — LHA-Suspicion re-gossip factor K",
       "design choice from paper §IV-B (K defaults to 3)",
       "Expectation: K=0 leaves the timeout at Max (slow detection, fewest\n"
       "FPs); K=3 recovers SWIM-level medians; larger K buys little more.\n",
       regossip_sweeps, regossip_fold},
      {"ablation-lhm", "Ablation — LHM saturation limit S",
       "design choice from paper §IV-A / §VII (S defaults to 8)",
       "Expectation: S=0 disables probe backoff (more load, more FPs from\n"
       "slow members); very large S risks sluggish detection tails.\n",
       lhm_sweeps, lhm_fold},
  };
  return all;
}

const Artifact* find(std::string_view name) {
  for (const Artifact& a : artifacts()) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

std::string names() {
  std::string out;
  for (const Artifact& a : artifacts()) {
    if (!out.empty()) out += ", ";
    out += a.name;
  }
  return out;
}

void Ledger::print(const Artifact& a, std::FILE* out) {
  std::fprintf(out, "== %s ==\nReproduces: %s\nMode: %s grid%s, seed %llu, "
               "jobs %s\n\n",
               a.title.c_str(), a.reference.c_str(),
               opt_.full ? "full paper" : "quick",
               opt_.reps > 0
                   ? (", --reps " + std::to_string(opt_.reps)).c_str()
                   : "",
               static_cast<unsigned long long>(opt_.seed),
               opt_.jobs == 0 ? "auto" : std::to_string(opt_.jobs).c_str());
  std::fflush(out);

  std::vector<SweepResult> results;
  for (const Sweep& sweep : a.sweeps(opt_)) {
    SweepResult& r = results.emplace_back();
    for (const Campaign& c : sweep.campaigns) r.push_back(row(sweep.key, c));
  }
  std::vector<const SweepResult*> fold_in;
  for (const SweepResult& r : results) fold_in.push_back(&r);
  std::fputs(a.fold(fold_in).render().c_str(), out);
  std::fprintf(out, "\n%s", a.note.c_str());
}

CampaignResult Ledger::row(const std::string& key, const Campaign& c) {
  auto it = std::find_if(done_.begin(), done_.end(), [&](const Done& d) {
    return d.key == key && d.config == c.base.config;
  });
  if (it == done_.end()) {
    ProgressReporter meter(c.name);
    done_.push_back({key, c.base.config, harness::run(c, {&meter})});
    it = std::prev(done_.end());
  }
  CampaignResult r = it->result;
  r.campaign_name = c.name;
  return r;
}

}  // namespace lifeguard::harness::paper
