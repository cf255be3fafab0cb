// The paper ledger: the ten evaluation artifacts of Dadgar et al. (DSN'18)
// — Tables IV–VII, Figs. 1–3 and three ablations — as campaigns over the
// registry's paper scenarios, run by `scenario_runner --paper NAME|all`.
//
// Every artifact folds the threshold or interval experiment (§V-D) over a
// Table II/III grid. A sweep is one Campaign per config row, whose base is
// the registry entry it reproduces — `table4-false-positives` for interval
// grids, `table5-latency` for threshold grids (its window set to 70 s quick
// or 105 s full), `fig1-cpu-exhaustion` for Fig. 1 — and whose victims, D
// and I axes salt trial_seed with {c, d_us, i_us} (interval) or
// {c, d_us, 0} (threshold). Config rows share salts, so every config sees
// the same anomaly schedule at the same grid point and repetition.
//
// The default ("quick") grids subsample each dimension so an artifact
// finishes in seconds to tens of seconds while keeping the paper's
// qualitative shape; Options::full runs Tables II/III verbatim (10
// repetitions, 120 s interval runs, a 105 s threshold window) — hours of
// compute. Results are bit-identical at every `jobs` level.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "harness/campaign.h"
#include "harness/table.h"
#include "swim/config.h"

namespace lifeguard::harness::paper {

/// Scope of a ledger run (`--full`, `--reps`, `--seed`, `--jobs`).
struct Options {
  bool full = false;
  /// Repetitions per grid point; 0 = each grid's own.
  int reps = 0;
  std::uint64_t seed = 42;
  /// Campaign worker threads: 0 = one per hardware thread, 1 = sequential.
  int jobs = 0;
};

/// One experiment of an artifact: the same grid as one campaign per config
/// row, each named after its row. The key names the grid: sweeps with one
/// key run one grid, so a ledger runs each (key, config) pair once however
/// many rows and artifacts fold it.
struct Sweep {
  std::string key;
  std::vector<Campaign> campaigns;
};

/// A sweep's results, parallel to its campaigns.
using SweepResult = std::vector<CampaignResult>;

struct Artifact {
  std::string name;       ///< `--paper` key: "table4", "ablation-nack", ...
  std::string title;      ///< banner headline
  std::string reference;  ///< what it reproduces
  std::string note;       ///< printed under the table: the paper's claim
  std::vector<Sweep> (*sweeps)(const Options&);
  /// Folds the results, parallel to sweeps(), into the printed table.
  Table (*fold)(const std::vector<const SweepResult*>&);
};

/// The ten artifacts, in `--paper all` order.
const std::vector<Artifact>& artifacts();
/// nullptr when no artifact has that name.
const Artifact* find(std::string_view name);
/// "table4, table5, ..." — for error messages.
std::string names();

/// Runs artifacts under one set of options, each (sweep key, config) pair
/// at most once.
class Ledger {
 public:
  explicit Ledger(Options opt) : opt_(opt) {}
  /// Prints `a`'s banner, runs the campaigns it needs (progress on stderr)
  /// and prints its table and note.
  void print(const Artifact& a, std::FILE* out);
  /// Campaigns run so far: one per distinct (sweep key, config) pair.
  std::size_t campaigns_run() const { return done_.size(); }

 private:
  struct Done {
    std::string key;
    swim::Config config;
    CampaignResult result;
  };
  /// The result of `c`, a campaign of the sweep `key`, named after `c`:
  /// run once per (key, config) and copied for every later row.
  CampaignResult row(const std::string& key, const Campaign& c);

  Options opt_;
  std::vector<Done> done_;
};

/// One config row's campaign, summed over trials: the interval
/// experiment's FP, FP⁻ and message-load totals.
struct Totals {
  std::int64_t fp = 0;   ///< FP events
  std::int64_t fpm = 0;  ///< FP⁻ events (at healthy members)
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};
Totals totals(const CampaignResult& r);
/// The same sums per grid point, parallel to r.points.
std::vector<Totals> point_totals(const CampaignResult& r);

}  // namespace lifeguard::harness::paper
