// Campaign reporters: structured artifacts and live progress.
//
// A Reporter observes a campaign run. The engine calls begin() once,
// progress() after every completed trial (completion order — suitable for a
// live meter), on_trial() once per trial strictly in trial-index order, and
// end() once with the folded result. All callbacks arrive under the engine's
// lock, so reporter implementations need no synchronization; artifacts
// written from on_trial()/end() are byte-identical for every `jobs` level
// because nothing execution-dependent (wall time, thread ids, job count) is
// ever emitted.
//
//   JsonlReporter — one JSON object per line: a campaign header, one
//     "trial" line per trial, one "aggregate" line per grid point.
//   CsvReporter   — a header row plus one row per trial (axis labels as
//     leading columns after the trial coordinates).
//   ProgressReporter — "\rname: done/total trials" on a stream (stderr for
//     command-line runs); prints a newline when the run completes.
#pragma once

#include <iosfwd>
#include <string>

#include "harness/campaign.h"

namespace lifeguard::harness {

class Reporter {
 public:
  virtual ~Reporter() = default;

  /// Once, before any trial runs. `grid` is the expanded cartesian product;
  /// `total_trials` = grid size × repetitions.
  virtual void begin(const Campaign& c, const std::vector<GridPoint>& grid,
                     int total_trials);
  /// After each trial completes, in completion order.
  virtual void progress(int done, int total);
  /// Once per trial, strictly in trial-index order (the engine holds back
  /// out-of-order completions until their predecessors are emitted).
  virtual void on_trial(const TrialResult& t);
  /// Once, after every trial has been emitted.
  virtual void end(const CampaignResult& r);
};

/// JSON-Lines artifact writer. The stream must outlive the reporter.
class JsonlReporter : public Reporter {
 public:
  explicit JsonlReporter(std::ostream& out) : out_(out) {}
  void begin(const Campaign& c, const std::vector<GridPoint>& grid,
             int total_trials) override;
  void on_trial(const TrialResult& t) override;
  void end(const CampaignResult& r) override;

 private:
  std::ostream& out_;
  std::vector<std::string> axis_names_;
  /// Per-point axis labels only — the full GridPoint Scenarios stay with
  /// the engine.
  std::vector<std::vector<std::string>> labels_;
};

/// Per-trial CSV writer. The stream must outlive the reporter.
class CsvReporter : public Reporter {
 public:
  explicit CsvReporter(std::ostream& out) : out_(out) {}
  void begin(const Campaign& c, const std::vector<GridPoint>& grid,
             int total_trials) override;
  void on_trial(const TrialResult& t) override;

 private:
  std::ostream& out_;
  std::vector<std::vector<std::string>> labels_;
};

/// Live one-line progress meter ("name: 12/36 trials").
class ProgressReporter : public Reporter {
 public:
  /// Writes to `out` (pass stderr-backed streams for command-line runs).
  explicit ProgressReporter(std::string label, std::ostream& out);
  /// Convenience: writes to std::clog (stderr).
  explicit ProgressReporter(std::string label);
  void progress(int done, int total) override;

 private:
  std::string label_;
  std::ostream& out_;
};

/// Escape a string for embedding in a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);
/// Shortest round-trip decimal rendering of a double ("%.17g", trimmed).
std::string json_double(double v);
/// Quote a CSV field iff it contains a comma, quote, or newline.
std::string csv_field(const std::string& s);

}  // namespace lifeguard::harness
