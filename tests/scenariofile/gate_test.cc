// The baseline metric gate: record_baseline on a run must admit that same
// run, a planted regression must fail with a per-metric diff naming the
// offending metric, and the baselines codec must be a to_json fixpoint.
#include <gtest/gtest.h>

#include <string>

#include "check/spec.h"
#include "harness/gate.h"
#include "harness/scenario.h"

namespace lifeguard::harness {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.name = "gate-under-test";
  s.summary = "gate test fixture";
  s.cluster_size = 8;
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(12), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.quiesce = sec(10);
  s.run_length = sec(30);
  s.checks = check::Spec::all();
  s.seed = 11;
  return s;
}

TEST(BaselineGate, RecordedRunPassesItsOwnGate) {
  const Scenario s = small_scenario();
  const RunResult r = run(s);

  BaselineSet baselines;
  baselines.entries.push_back(record_baseline(s, r));
  const GateReport report = gate_run(s, r, baselines);
  EXPECT_TRUE(report.passed) << report.describe();
  EXPECT_TRUE(report.diffs.empty());
  EXPECT_EQ(report.describe(), "gate OK gate-under-test");
}

TEST(BaselineGate, PlantedRegressionFailsNamingTheMetric) {
  const Scenario s = small_scenario();
  const RunResult r = run(s);

  BaselineSet baselines;
  baselines.entries.push_back(record_baseline(s, r));

  // Plant a load regression: double the message count pushes msgs_sent past
  // its +/-10% band while every other metric stays put.
  RunResult regressed = r;
  regressed.msgs_sent = r.msgs_sent * 2;
  const GateReport report = gate_run(s, regressed, baselines);
  ASSERT_FALSE(report.passed);
  ASSERT_EQ(report.diffs.size(), 1u) << report.describe();
  EXPECT_EQ(report.diffs[0].metric, "msgs_sent");
  EXPECT_NE(report.describe().find("gate FAIL gate-under-test"),
            std::string::npos);
  EXPECT_NE(report.describe().find("msgs_sent"), std::string::npos);
  EXPECT_NE(report.describe().find("outside ["), std::string::npos);

  // Detections are gated exactly — losing one is always a failure.
  {
    RunResult fewer = r;
    ASSERT_FALSE(fewer.first_detect.empty());
    fewer.first_detect.pop_back();
    const GateReport detect_report = gate_run(s, fewer, baselines);
    ASSERT_FALSE(detect_report.passed);
    bool named = false;
    for (const GateDiff& d : detect_report.diffs) {
      if (d.metric == "detections") named = true;
    }
    EXPECT_TRUE(named) << detect_report.describe();
  }
}

TEST(BaselineGate, SeedMismatchAndMissingScenarioAreExplicit) {
  const Scenario s = small_scenario();
  const RunResult r = run(s);

  BaselineSet baselines;
  baselines.entries.push_back(record_baseline(s, r));

  Scenario reseeded = s;
  reseeded.seed = 99;
  const GateReport seed_report = gate_run(reseeded, r, baselines);
  EXPECT_FALSE(seed_report.passed);
  EXPECT_NE(seed_report.error.find("seed mismatch"), std::string::npos);
  EXPECT_NE(seed_report.error.find("99"), std::string::npos);
  EXPECT_NE(seed_report.error.find("11"), std::string::npos);

  Scenario unknown = s;
  unknown.name = "never-recorded";
  const GateReport missing_report = gate_run(unknown, r, baselines);
  EXPECT_FALSE(missing_report.passed);
  EXPECT_NE(
      missing_report.error.find("no baseline recorded for scenario "
                                "'never-recorded'"),
      std::string::npos);
  EXPECT_NE(missing_report.error.find("tools/record-baselines.sh"),
            std::string::npos);
}

TEST(BaselineGate, BaselinesCodecIsAToJsonFixpoint) {
  const Scenario s = small_scenario();
  const RunResult r = run(s);

  BaselineSet set;
  set.entries.push_back(record_baseline(s, r));
  const std::string doc = baselines_to_json(set);

  std::string error;
  const auto loaded = baselines_from_json(doc, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(baselines_to_json(*loaded), doc);

  const ScenarioBaseline* entry = loaded->find(s.name);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->seed, s.seed);
  EXPECT_EQ(entry->bands.size(), set.entries[0].bands.size());
  // The recorded run still passes through the reloaded bands.
  EXPECT_TRUE(gate_run(s, r, *loaded).passed);
}

}  // namespace
}  // namespace lifeguard::harness
