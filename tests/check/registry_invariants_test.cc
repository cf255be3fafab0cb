// Every cataloged scenario is a property test: the full built-in invariant
// suite must hold over its entire run. This is the net that catches protocol
// bugs the end-of-run metric assertions cannot see (a mid-run safety
// violation that later self-corrects still fails here). A violating scenario
// writes a replayable trace under traces/ so CI can attach the reproducer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "check/spec.h"
#include "check/trace.h"
#include "harness/accounting.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenariofile.h"
#include "membership/backend.h"

namespace lifeguard {
namespace {

using harness::RunResult;
using harness::Scenario;
using harness::ScenarioRegistry;

TEST(RegistryInvariants, AllScenariosPassTheFullSuite) {
  const auto& catalog = ScenarioRegistry::builtin().all();
  ASSERT_EQ(catalog.size(), 26u) << "catalog drifted — update this suite";

  // The big-* tier (n >= 1000) runs minutes of wall time per scenario; it
  // has its own coverage (tests/big/big_scenario_test.cc runs one big
  // scenario under the full suite) and is exercised at full scale out of
  // band. Everything else — including the live-* entries, which are
  // backend-agnostic descriptors and must hold in-sim too — runs here.
  std::vector<Scenario> all;
  for (const Scenario& s : catalog) {
    if (s.cluster_size < 1000) all.push_back(s);
  }
  ASSERT_EQ(all.size(), 22u);

  struct Outcome {
    std::string name;
    std::string membership;
    RunResult result;
    check::Trace trace;
  };
  std::vector<Outcome> outcomes(all.size());

  // Scenarios are independent deterministic runs; spread them over the
  // machine exactly like campaign trials.
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < hw; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= all.size()) return;
        Scenario s = all[i];
        s.checks = check::Spec::all();
        check::TraceRecorder recorder(s);
        const RunResult r = harness::run(s, {&recorder});
        outcomes[i] = {s.name, s.membership, r, recorder.take()};
      }
    });
  }
  for (auto& th : pool) th.join();

  int detecting = 0;
  int with_fp = 0;
  for (const Outcome& o : outcomes) {
    const check::RunReport& report = o.result.checks;
    EXPECT_TRUE(report.checked) << o.name;
    // Swim scenarios run the full suite; non-swim backends run the four
    // protocol-generic invariants (swim-only ones auto-disable — see
    // docs/membership.md).
    const std::size_t expected =
        membership::base_name(o.membership) == "swim"
            ? check::builtin_invariant_names().size()
            : 4u;
    EXPECT_EQ(report.invariants.size(), expected) << o.name;

    // The failure accounting, run again over the trace as saved and
    // reloaded, reproduces the engine's four paper metrics. The injection
    // starts right after the quiesce (virtual time starts at zero).
    std::stringstream saved;
    check::save_trace(o.trace, saved);
    std::string load_error;
    const auto loaded = check::load_trace(saved, load_error);
    ASSERT_TRUE(loaded.has_value()) << o.name << ": " << load_error;
    // The file carries the run it was recorded from, config and all, so it
    // replays from the file alone: the reloaded scenario renders to the same
    // scenario file, bar the two keys a trace leaves out.
    Scenario recorded = o.trace.scenario;
    recorded.summary.clear();
    recorded.paper_ref.clear();
    EXPECT_EQ(harness::ScenarioFile::to_json(loaded->scenario),
              harness::ScenarioFile::to_json(recorded))
        << o.name;
    harness::FailureAccounting recount(loaded->scenario.cluster_size);
    recount.begin(TimePoint{} + loaded->scenario.quiesce, o.result.victims);
    for (const check::TraceEvent& e : loaded->events) {
      recount.on_trace_event(e);
    }
    RunResult counted;
    recount.fill(counted);
    EXPECT_EQ(counted.fp_events, o.result.fp_events) << o.name;
    EXPECT_EQ(counted.fp_healthy_events, o.result.fp_healthy_events)
        << o.name;
    EXPECT_EQ(counted.first_detect, o.result.first_detect) << o.name;
    EXPECT_EQ(counted.full_dissem, o.result.full_dissem) << o.name;
    detecting += o.result.first_detect.empty() ? 0 : 1;
    with_fp += o.result.fp_events > 0 ? 1 : 0;

    if (report.total_violations == 0) continue;
    std::filesystem::create_directories("traces");
    const std::string path = "traces/" + o.name + ".trace.jsonl";
    std::string error;
    check::save_trace_file(o.trace, path, error);
    std::ostringstream detail;
    for (const check::Violation& v : report.violations) {
      detail << "\n  " << v.describe();
    }
    ADD_FAILURE() << o.name << " violated "
                  << report.total_violations
                  << " invariant(s); trace saved to " << path << detail.str();
  }
  // The recount above compares something: the catalog detects victims and
  // raises false positives.
  EXPECT_GT(detecting, 0);
  EXPECT_GT(with_fp, 0);
}

// Checking is a pure observation: enabling the suite must not change a
// single metric of the run (no Rng draws, no protocol interference).
TEST(RegistryInvariants, CheckingDoesNotPerturbTheRun) {
  const Scenario* base = ScenarioRegistry::builtin().find("table5-latency");
  ASSERT_NE(base, nullptr);

  const RunResult plain = harness::run(*base);
  Scenario checked = *base;
  checked.checks = check::Spec::all();
  const RunResult observed = harness::run(checked);

  EXPECT_EQ(plain.fp_events, observed.fp_events);
  EXPECT_EQ(plain.fp_healthy_events, observed.fp_healthy_events);
  EXPECT_EQ(plain.msgs_sent, observed.msgs_sent);
  EXPECT_EQ(plain.bytes_sent, observed.bytes_sent);
  EXPECT_EQ(plain.victims, observed.victims);
  EXPECT_EQ(plain.first_detect, observed.first_detect);
  EXPECT_EQ(plain.full_dissem, observed.full_dissem);
  EXPECT_FALSE(plain.checks.checked);
  EXPECT_TRUE(observed.checks.checked);
  EXPECT_TRUE(observed.checks.passed());
}

// Spec validation is wired through Scenario::validate — an unknown
// invariant name is rejected before the engine runs.
TEST(RegistryInvariants, UnknownInvariantNameFailsValidation) {
  Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  s.checks.enabled = true;
  s.checks.invariants = {"convergence", "no-such-invariant"};
  const auto errors = s.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("no-such-invariant"), std::string::npos);
  EXPECT_THROW(harness::run(s), harness::ScenarioError);
}

TEST(RegistryInvariants, NarrowedSpecRunsOnlyTheNamedInvariants) {
  Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  s.run_length = sec(30);
  s.checks.enabled = true;
  s.checks.invariants = {"incarnation-monotonic", "legal-transitions"};
  const RunResult r = harness::run(s);
  ASSERT_TRUE(r.checks.checked);
  EXPECT_EQ(r.checks.invariants,
            (std::vector<std::string>{"incarnation-monotonic",
                                      "legal-transitions"}));
  EXPECT_TRUE(r.checks.passed());
}

// Campaigns carry per-trial verdicts into the JSONL/CSV artifacts, and the
// artifacts stay byte-identical at every jobs level.
TEST(RegistryInvariants, CampaignVerdictArtifactsAreJobsInvariant) {
  harness::Campaign c;
  c.name = "checked-campaign";
  c.base = *ScenarioRegistry::builtin().find("partition-split-heal");
  c.base.cluster_size = 12;
  c.base.timeline.entry(0).victims = fault::VictimSelector::uniform(4);
  c.base.run_length = sec(90);
  c.base.checks = check::Spec::all();
  c.repetitions = 4;

  auto artifacts = [&](int jobs) {
    harness::Campaign run_c = c;
    run_c.jobs = jobs;
    std::ostringstream jsonl, csv;
    harness::JsonlReporter jr(jsonl);
    harness::CsvReporter cr(csv);
    const harness::CampaignResult r =
        harness::run(run_c, {&jr, &cr});
    EXPECT_EQ(r.points.front().checked_trials, 4);
    EXPECT_EQ(r.points.front().violating_trials, 0);
    EXPECT_EQ(r.points.front().violations.count, 4);
    EXPECT_EQ(r.points.front().violations.mean, 0.0);
    return std::pair{jsonl.str(), csv.str()};
  };

  const auto seq = artifacts(1);
  const auto par = artifacts(4);
  EXPECT_EQ(seq.first, par.first);
  EXPECT_EQ(seq.second, par.second);
  EXPECT_NE(seq.first.find("\"checked\":true"), std::string::npos);
  EXPECT_NE(seq.first.find("\"violations\":0"), std::string::npos);
  EXPECT_NE(seq.second.find(",checked,violations"), std::string::npos);
}

}  // namespace
}  // namespace lifeguard
