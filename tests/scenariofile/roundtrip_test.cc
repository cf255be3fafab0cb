// Round-trip property tests for the scenario-file format and the `--fault`
// grammar it is built on.
//
// The file format stores timelines as check::entry_spec() strings and
// re-parses them with fault::parse_timeline_entry, so the grammar must be a
// lossless encoding of every Fault kind and every VictimSelector variant —
// the sweep below pins entry_spec -> parse -> re-emit string equality for
// the full cross product. On top of that, ScenarioFile::to_json must be a
// fixpoint under load: to_json(from_json(to_json(s))) == to_json(s) for
// every registry scenario and for hand-tuned ("Custom") configurations, and
// a hand-tuned config survives every form of the codec: scenario file,
// trace header and the live worker's --config object.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/trace.h"
#include "fault/fault.h"
#include "harness/scenario.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {
namespace {

using fault::Fault;
using fault::TimelineEntry;
using fault::VictimSelector;

/// One representative Fault per kind, with every kind-specific parameter
/// set to a non-default value so a dropped key cannot hide.
std::vector<Fault> every_fault() {
  fault::StressParams stress;
  stress.block_min = msec(100);
  stress.block_max = sec(2);
  stress.run_min = msec(50);
  stress.run_max = msec(750);
  return {
      Fault::block(),
      Fault::interval_block(msec(1500), msec(250)),
      Fault::stressed(stress),
      Fault::flapping(msec(800), msec(40)),
      Fault::churn(sec(3), sec(7)),
      Fault::partition(),
      Fault::link_loss(0.3, 0.1),
      Fault::latency(msec(25), msec(5)),
      Fault::duplicate(0.15),
      Fault::reorder(0.05, msec(12)),
  };
}

/// One representative selector per VictimSelector::Mode.
std::vector<VictimSelector> every_selector() {
  return {
      VictimSelector::uniform(4),
      VictimSelector::nodes({1, 3, 5}),
      VictimSelector::fraction_of(0.25),
      VictimSelector::island(3, 2),
  };
}

TEST(FaultGrammarRoundTrip, EveryKindTimesEverySelectorReEmitsItself) {
  for (const Fault& f : every_fault()) {
    for (const VictimSelector& v : every_selector()) {
      TimelineEntry e;
      e.at = msec(2500);
      e.duration = sec(30);
      e.fault = f;
      e.victims = v;
      const std::string spec = check::entry_spec(e);

      std::string error;
      const auto parsed = fault::parse_timeline_entry(spec, error);
      ASSERT_TRUE(parsed.has_value())
          << "spec '" << spec << "' failed to parse: " << error;
      EXPECT_EQ(check::entry_spec(*parsed), spec)
          << fault::fault_kind_name(f.kind) << " x " << v.describe()
          << " did not round-trip";
    }
  }
}

TEST(ScenarioFileRoundTrip, EveryRegistryScenarioIsAToJsonFixpoint) {
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    const std::string doc = ScenarioFile::to_json(s);
    std::string error;
    const auto loaded = ScenarioFile::from_json(doc, error);
    ASSERT_TRUE(loaded.has_value()) << s.name << ": " << error;
    EXPECT_EQ(ScenarioFile::to_json(*loaded), doc)
        << s.name << " did not round-trip";
    // The loaded scenario carries the timeline and stays valid.
    EXPECT_TRUE(loaded->validate().empty()) << s.name;
    EXPECT_EQ(loaded->name, s.name);
    EXPECT_EQ(loaded->seed, s.seed);
    EXPECT_EQ(loaded->cluster_size, s.cluster_size);
    EXPECT_EQ(loaded->membership, s.membership);
    EXPECT_TRUE(loaded->config == s.config) << s.name;
  }
}

TEST(ScenarioFileRoundTrip, HandTunedCustomConfigSurvivesFieldForField) {
  Scenario s;
  s.name = "custom-config-roundtrip";
  s.cluster_size = 8;
  s.run_length = sec(30);
  // A toggle combination outside Table I ("Custom") with every other knob
  // moved off its default — the hardest case for the preset + overrides
  // decomposition.
  s.config.lha_probe = true;
  s.config.lha_suspicion = true;
  s.config.buddy_system = false;
  s.config.probe_interval = msec(350);
  s.config.probe_timeout = msec(120);
  s.config.indirect_checks = 5;
  s.config.reliable_fallback_probe = false;
  s.config.retransmit_mult = 6;
  s.config.gossip_interval = msec(75);
  s.config.gossip_fanout = 4;
  s.config.gossip_to_dead = sec(12);
  s.config.max_packet_bytes = 900;
  s.config.push_pull_interval = sec(45);
  s.config.reconnect_interval = sec(8);
  s.config.join_retry_interval = msec(1500);
  s.config.suspicion_alpha = 4.5;
  s.config.suspicion_beta = 3.25;
  s.config.suspicion_k = 2;
  s.config.lhm_max = 6;
  s.config.nack_fraction = 0.6;
  s.config.nack_enabled = false;
  s.config.dead_reclaim_after = sec(90);
  ASSERT_EQ(s.config.table1_name(), "Custom");

  const std::string doc = ScenarioFile::to_json(s);
  std::string error;
  const auto loaded = ScenarioFile::from_json(doc, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->config == s.config);
  EXPECT_EQ(ScenarioFile::to_json(*loaded), doc);

  // The same config through the two other forms of the one codec: a saved
  // trace header and the live worker's --config argument.
  check::Trace t;
  t.scenario = s;
  std::stringstream saved;
  check::save_trace(t, saved);
  const auto trace = check::load_trace(saved, error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_TRUE(trace->scenario.config == s.config);
  const auto worker = ScenarioFile::config_from_json(
      "{" + ScenarioFile::config_members(s.config) + "}", error);
  ASSERT_TRUE(worker.has_value()) << error;
  EXPECT_TRUE(*worker == s.config);
}

TEST(ScenarioFileRoundTrip, SparseHandAuthoredFileGetsScenarioDefaults) {
  const std::string doc =
      "{\"type\": \"scenario\", \"version\": 1, \"name\": \"minimal\"}";
  std::string error;
  const auto loaded = ScenarioFile::from_json(doc, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const Scenario defaults;
  EXPECT_EQ(loaded->cluster_size, defaults.cluster_size);
  EXPECT_EQ(loaded->seed, defaults.seed);
  EXPECT_EQ(loaded->quiesce.us, defaults.quiesce.us);
  EXPECT_EQ(loaded->run_length.us, defaults.run_length.us);
  EXPECT_EQ(loaded->membership, "swim");
  EXPECT_TRUE(loaded->config == defaults.config);
  EXPECT_TRUE(loaded->timeline.empty());
  EXPECT_FALSE(loaded->checks.enabled);
}

}  // namespace
}  // namespace lifeguard::harness
