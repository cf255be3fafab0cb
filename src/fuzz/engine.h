// fuzz::Engine — coverage-guided fault-timeline fuzzing.
//
// The search loop the checker, shrinker and Campaign engine were built
// toward (ROADMAP item 4): generate candidate fault::Timelines with
// fuzz::Mutator, run each as a full deterministic scenario trial through
// the thread-pooled harness::Campaign machinery, extract structural
// coverage from the merged TraceEvent stream (check::CoverageCollector),
// and keep the candidates that reached behavior no earlier trial did. Any
// invariant violation is auto-shrunk with check::shrink() and emitted as a
// minimal committed-format reproducer (scenarios/fuzz-*.json, PR 9's
// codec) with its own baseline entry.
//
// Determinism contract (the same one Campaign and the shrinker pin):
// given (--fuzz-seed, trial budget, base scenario), the whole run — corpus
// evolution, coverage set, findings, every emitted byte — is identical at
// every --fuzz-jobs level. Trials execute in parallel inside a generation,
// but candidates are derived from SplitMix64 chains over (seed, generation,
// candidate index) before the generation starts, and coverage/corpus state
// advances only at the generation barrier, folded in trial-index order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/shrink.h"
#include "fuzz/mutator.h"
#include "harness/scenario.h"

namespace lifeguard::fuzz {

/// The global seen-coverage set plus the corpus of timelines that extended
/// it. The corpus is append-only in discovery order (trial-index order
/// within a generation), so its contents — and the files written from it —
/// are independent of the jobs level.
class CoverageMap {
 public:
  /// Folds one trial's sorted key set in; returns how many keys were new.
  std::size_t merge(const std::vector<std::uint64_t>& keys);

  std::size_t size() const { return seen_.size(); }
  /// Order-independent digest of the whole seen set (sorted fold).
  std::uint64_t digest() const;

 private:
  std::unordered_set<std::uint64_t> seen_;
};

struct EngineOptions {
  /// Total trial budget (--fuzz N).
  int trials = 1000;
  /// Base of every derivation chain (--fuzz-seed).
  std::uint64_t seed = 1;
  /// Worker threads per generation, 0 = hardware (--fuzz-jobs). Never
  /// changes any output byte.
  int jobs = 0;
  /// Trials per generation barrier. Fixed and jobs-independent: corpus
  /// state only advances between generations.
  int generation_size = 25;
  /// Where reproducers, the corpus and coverage.json land; empty = keep
  /// everything in memory only.
  std::string out_dir;
  /// Write the corpus + coverage report even when there are no findings
  /// (the committed evidence-of-absence artifact).
  bool write_corpus = true;
  MutatorOptions mutator;
};

/// One violation the fuzzer found, shrunk and (when out_dir is set) written.
struct Finding {
  /// Distinct violated invariants of the original trial, sorted — the
  /// dedup signature (one finding per signature per run).
  std::vector<std::string> invariants;
  /// Global trial index that first hit the signature.
  int trial_index = 0;
  /// The shrunk minimal reproducer (name "fuzz-<invariant>-<hash>").
  harness::Scenario reproducer;
  check::ShrinkResult shrink;
  /// Path written under out_dir; empty when out_dir is empty.
  std::string file;
};

struct FuzzReport {
  int trials = 0;
  int generations = 0;
  std::size_t coverage_keys = 0;
  std::uint64_t coverage_digest = 0;
  std::size_t corpus_size = 0;
  std::vector<Finding> findings;
  /// Filenames (relative to out_dir) of the written corpus scenarios.
  std::vector<std::string> corpus_files;
  /// Path of the written coverage report; empty when nothing was written.
  std::string report_file;
};

class Engine {
 public:
  /// `base` supplies the cluster shape, config, membership spec and check
  /// knobs; its timeline is replaced per candidate and its checks
  /// are force-enabled (Spec::all()) when off.
  Engine(harness::Scenario base, EngineOptions opts);

  /// Run the full budget. Throws ScenarioError on an unrunnable base and
  /// std::runtime_error when out_dir cannot be written.
  FuzzReport run();

 private:
  harness::Scenario base_;
  EngineOptions opts_;
};

// ---------------------------------------------------------------------------
// The committed coverage report (out_dir/coverage.json)

/// Machine-checked evidence of what a fuzz run searched: the budget, the
/// final coverage set size and digest, and per-corpus-file replay digests.
/// tests/fuzz re-runs every corpus scenario and pins that the union of
/// their coverage equals this document.
struct CoverageReport {
  static constexpr int kVersion = 1;

  std::uint64_t fuzz_seed = 0;
  int trials = 0;
  int generations = 0;
  int cluster_size = 0;
  std::size_t coverage_keys = 0;
  std::uint64_t coverage_digest = 0;

  struct CorpusEntry {
    std::string file;          ///< scenario filename, relative to the report
    std::uint64_t seed = 0;    ///< the trial seed baked into the scenario
    std::size_t new_keys = 0;  ///< keys this trial added when discovered
    std::uint64_t digest = 0;  ///< full coverage digest of the trial's run
  };
  std::vector<CorpusEntry> corpus;
  /// Reproducer filenames, relative to the report.
  std::vector<std::string> findings;
};

std::string coverage_report_to_json(const CoverageReport& r);
std::optional<CoverageReport> coverage_report_from_json(
    const std::string& text, std::string& error);
bool save_coverage_report(const CoverageReport& r, const std::string& path,
                          std::string& error);
std::optional<CoverageReport> load_coverage_report(const std::string& path,
                                                   std::string& error);

}  // namespace lifeguard::fuzz
