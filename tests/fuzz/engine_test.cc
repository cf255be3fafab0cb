// fuzz::Engine regression tests: the planted-bug suite and the
// determinism/artifact contracts.
//
// Three known-bad knobs are planted behind test-only hooks:
//   * check::Spec::suspicion_cap below the protocol's real floor
//     (suspicion-bounds violations — the shrinker's original plant);
//   * swim:plant=drop-refute — a swim node silently drops its own
//     refutation, so a healthy member stays dead in every view
//     (convergence violations);
//   * central:plant=refail — the coordinator re-announces already-failed
//     members on every sweep (kFailed -> kFailed, a legal-transitions
//     violation).
// At a fixed --fuzz-seed and a small bounded budget the fuzzer must find
// each plant and shrink it to a reproducer of at most 3 timeline entries
// whose replay carries the identical verdict. The artifact tests pin that
// every emitted byte is jobs-invariant and that coverage.json is
// machine-checked evidence: re-running a fresh corpus, and the committed
// scenarios/fuzz-corpus, reproduces the per-file digests, and their union is
// exactly the reported coverage set.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/coverage.h"
#include "fuzz/engine.h"
#include "harness/gate.h"
#include "harness/scenariofile.h"

namespace lifeguard {
namespace {

namespace fs = std::filesystem;

/// The shared fuzz target: small cluster, short window — one trial runs in
/// milliseconds, so the whole planted-bug budget stays cheap.
harness::Scenario fuzz_base() {
  harness::Scenario s;
  s.name = "fuzz-base";
  s.summary = "planted-bug fuzz target";
  s.cluster_size = 10;
  s.config = swim::Config::lifeguard();
  s.run_length = sec(45);
  return s;
}

/// The fixed budget every planted bug must fall to: 30 trials at seed 7.
fuzz::EngineOptions budget() {
  fuzz::EngineOptions o;
  o.trials = 30;
  o.seed = 7;
  return o;
}

bool contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(FuzzEngine, FindsAndShrinksEveryPlantedBug) {
  struct Plant {
    std::string label;
    std::function<void(harness::Scenario&)> apply;
    std::string invariant;
  };
  const std::vector<Plant> plants = {
      {"suspicion-cap below the protocol floor",
       [](harness::Scenario& s) {
         s.checks = check::Spec::all();
         s.checks.suspicion_cap = msec(500);
       },
       "suspicion-bounds"},
      {"swim drops its own refutations",
       [](harness::Scenario& s) { s.membership = "swim:plant=drop-refute"; },
       "convergence"},
      {"central re-fails already-failed members",
       [](harness::Scenario& s) { s.membership = "central:plant=refail"; },
       "legal-transitions"},
  };
  for (const Plant& p : plants) {
    harness::Scenario base = fuzz_base();
    p.apply(base);
    fuzz::Engine engine(base, budget());
    const fuzz::FuzzReport r = engine.run();
    ASSERT_FALSE(r.findings.empty()) << p.label;

    const fuzz::Finding* hit = nullptr;
    for (const fuzz::Finding& f : r.findings) {
      if (contains(f.invariants, p.invariant)) {
        hit = &f;
        break;
      }
    }
    ASSERT_NE(hit, nullptr)
        << p.label << ": no finding violates " << p.invariant;
    EXPECT_TRUE(hit->shrink.reproduced) << p.label;

    // Auto-shrunk to a human-readable reproducer: at most 3 entries.
    EXPECT_LE(hit->reproducer.timeline.size(), 3u)
        << p.label << ": " << hit->reproducer.timeline.summary();
    EXPECT_TRUE(hit->reproducer.validate().empty()) << p.label;
    EXPECT_EQ(hit->reproducer.name.rfind("fuzz-" + p.invariant, 0), 0u)
        << p.label << ": name is " << hit->reproducer.name;

    // Replaying the reproducer carries the identical verdict bit for bit.
    const harness::RunResult replay = harness::run(hit->reproducer);
    EXPECT_EQ(replay.checks, hit->shrink.minimal_result.checks) << p.label;
    EXPECT_TRUE(contains(replay.checks.violated_invariants(), p.invariant))
        << p.label;
  }
}

TEST(FuzzEngine, RunsAreBitReproducibleAtAFixedSeed) {
  harness::Scenario base = fuzz_base();
  base.membership = "central:plant=refail";
  const fuzz::FuzzReport a = fuzz::Engine(base, budget()).run();
  const fuzz::FuzzReport b = fuzz::Engine(base, budget()).run();
  EXPECT_EQ(a.coverage_keys, b.coverage_keys);
  EXPECT_EQ(a.coverage_digest, b.coverage_digest);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].invariants, b.findings[i].invariants);
    EXPECT_EQ(a.findings[i].trial_index, b.findings[i].trial_index);
    EXPECT_EQ(a.findings[i].reproducer.name, b.findings[i].reproducer.name);
  }
}

TEST(FuzzEngine, EveryEmittedByteIsIdenticalAtEveryJobsLevel) {
  const fs::path root = fs::path(::testing::TempDir()) / "fuzz-jobs-parity";
  fs::remove_all(root);
  harness::Scenario base = fuzz_base();
  base.membership = "central:plant=refail";
  auto run_at = [&](int jobs, const char* sub) {
    fuzz::EngineOptions o = budget();
    o.jobs = jobs;
    o.out_dir = (root / sub).string();
    return fuzz::Engine(base, o).run();
  };
  const fuzz::FuzzReport a = run_at(1, "j1");
  const fuzz::FuzzReport b = run_at(8, "j8");
  EXPECT_EQ(a.coverage_digest, b.coverage_digest);
  EXPECT_EQ(a.corpus_files, b.corpus_files);
  const std::vector<std::string> names = listing(root / "j1");
  ASSERT_EQ(names, listing(root / "j8"));
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_EQ(slurp(root / "j1" / name), slurp(root / "j8" / name)) << name;
  }
  fs::remove_all(root);
}

TEST(FuzzEngine, EmittedReproducersLoadValidateAndReplayTheirViolation) {
  const fs::path dir = fs::path(::testing::TempDir()) / "fuzz-reproducers";
  fs::remove_all(dir);
  harness::Scenario base = fuzz_base();
  base.membership = "swim:plant=drop-refute";
  fuzz::EngineOptions opts = budget();
  opts.out_dir = dir.string();
  const fuzz::FuzzReport r = fuzz::Engine(base, opts).run();
  ASSERT_FALSE(r.findings.empty());
  for (const fuzz::Finding& f : r.findings) {
    ASSERT_FALSE(f.file.empty());
    std::string error;
    const auto loaded = harness::ScenarioFile::load(f.file, error);
    ASSERT_TRUE(loaded.has_value()) << f.file << ": " << error;
    EXPECT_EQ(loaded->name, f.reproducer.name);
    EXPECT_TRUE(loaded->validate().empty()) << f.file;
    // The file round-trips the exact scenario: re-running it reproduces the
    // shrunk run's verdict, not just "some" violation.
    const harness::RunResult replay = harness::run(*loaded);
    EXPECT_EQ(replay.checks, f.shrink.minimal_result.checks) << f.file;
  }
  // Findings also carry baseline entries so the gate tier can hold them.
  std::string error;
  const auto baselines =
      harness::load_baselines_file((dir / "baselines.json").string(), error);
  ASSERT_TRUE(baselines.has_value()) << error;
  EXPECT_EQ(baselines->entries.size(), r.findings.size());
  fs::remove_all(dir);
}

/// Re-runs every corpus scenario listed in `report`: its coverage digest
/// must match the report, its discovery-order merge must add exactly the
/// recorded number of new keys, and the union must be the reported coverage
/// set. Trials outside the corpus contributed nothing by construction.
void expect_corpus_replays(const fs::path& dir,
                           const fuzz::CoverageReport& report) {
  std::string error;
  fuzz::CoverageMap map;
  for (const fuzz::CoverageReport::CorpusEntry& e : report.corpus) {
    const auto s = harness::ScenarioFile::load((dir / e.file).string(),
                                               error);
    ASSERT_TRUE(s.has_value()) << e.file << ": " << error;
    EXPECT_EQ(s->seed, e.seed) << e.file;
    std::vector<fault::FaultKind> kinds;
    for (const fault::TimelineEntry& te : s->timeline.entries()) {
      kinds.push_back(te.fault.kind);
    }
    check::CoverageCollector collector(kinds);
    (void)harness::run(*s, {&collector});
    const std::vector<std::uint64_t> keys = collector.keys();
    EXPECT_EQ(check::CoverageCollector::digest_of(keys), e.digest) << e.file;
    EXPECT_EQ(map.merge(keys), e.new_keys) << e.file;
  }
  EXPECT_EQ(map.size(), report.coverage_keys);
  EXPECT_EQ(map.digest(), report.coverage_digest);
}

TEST(FuzzEngine, CoverageReportIsMachineCheckedByReplayingTheCorpus) {
  const fs::path dir = fs::path(::testing::TempDir()) / "fuzz-corpus-check";
  fs::remove_all(dir);
  fuzz::EngineOptions opts = budget();
  opts.out_dir = dir.string();
  const fuzz::FuzzReport run_report = fuzz::Engine(fuzz_base(), opts).run();
  ASSERT_FALSE(run_report.report_file.empty());

  std::string error;
  const auto report = fuzz::load_coverage_report(run_report.report_file,
                                                 error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->fuzz_seed, budget().seed);
  EXPECT_EQ(report->trials, budget().trials);
  ASSERT_FALSE(report->corpus.empty());
  expect_corpus_replays(dir, *report);
  fs::remove_all(dir);
}

TEST(FuzzEngine, CommittedCorpusReplaysItsCoverageReport) {
  // The committed corpus is the evidence docs/fuzzing.md cites for what
  // the 2000-trial search reached. A protocol change that moves any entry's
  // coverage fails here until the corpus is regenerated.
  const fs::path dir =
      fs::path(LIFEGUARD_SOURCE_DIR) / "scenarios" / "fuzz-corpus";
  std::string error;
  const auto report =
      fuzz::load_coverage_report((dir / "coverage.json").string(), error);
  ASSERT_TRUE(report.has_value()) << error;
  ASSERT_FALSE(report->corpus.empty());
  expect_corpus_replays(dir, *report);
}

TEST(FuzzCoverageReport, CodecRoundTripsExactly) {
  fuzz::CoverageReport r;
  r.fuzz_seed = 123456789012345ULL;
  r.trials = 400;
  r.generations = 16;
  r.cluster_size = 10;
  r.coverage_keys = 2;
  r.coverage_digest = 0xdeadbeefcafef00dULL;
  r.corpus = {{"fuzz-corpus-0000.json", 42, 57, 7ULL},
              {"fuzz-corpus-0001.json", 43, 1, 0xffffffffffffffffULL}};
  r.findings = {"fuzz-convergence-00000001.json"};

  std::string error;
  const auto parsed =
      fuzz::coverage_report_from_json(fuzz::coverage_report_to_json(r),
                                      error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->fuzz_seed, r.fuzz_seed);
  EXPECT_EQ(parsed->trials, r.trials);
  EXPECT_EQ(parsed->generations, r.generations);
  EXPECT_EQ(parsed->cluster_size, r.cluster_size);
  EXPECT_EQ(parsed->coverage_keys, r.coverage_keys);
  EXPECT_EQ(parsed->coverage_digest, r.coverage_digest);
  ASSERT_EQ(parsed->corpus.size(), r.corpus.size());
  for (std::size_t i = 0; i < r.corpus.size(); ++i) {
    EXPECT_EQ(parsed->corpus[i].file, r.corpus[i].file);
    EXPECT_EQ(parsed->corpus[i].seed, r.corpus[i].seed);
    EXPECT_EQ(parsed->corpus[i].new_keys, r.corpus[i].new_keys);
    EXPECT_EQ(parsed->corpus[i].digest, r.corpus[i].digest);
  }
  EXPECT_EQ(parsed->findings, r.findings);
}

TEST(FuzzCoverageReport, StrictParserRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(fuzz::coverage_report_from_json("not json", error));
  EXPECT_FALSE(fuzz::coverage_report_from_json(
      R"({"type": "scenario", "version": 1})", error));
  // Unknown keys are defects, not noise — committed artifacts stay clean.
  fuzz::CoverageReport r;
  std::string json = fuzz::coverage_report_to_json(r);
  json.replace(json.find("\"trials\""), 8, "\"trails\"");
  EXPECT_FALSE(fuzz::coverage_report_from_json(json, error));
  EXPECT_NE(error.find("trails"), std::string::npos);
}

}  // namespace
}  // namespace lifeguard
