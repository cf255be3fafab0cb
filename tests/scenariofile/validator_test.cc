// Negative-path coverage for the scenario-file validator: one malformed
// document per error class, each asserting the diagnostic names the
// offending key or value — the same error discipline as
// membership::parse_spec ("actionable, or it didn't happen").
#include <gtest/gtest.h>

#include <string>

#include "harness/gate.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {
namespace {

/// Wrap body fields into a minimally valid document and expect from_json to
/// reject it with a message containing every needle.
void expect_rejected(const std::string& extra_fields,
                     std::initializer_list<const char*> needles) {
  const std::string doc =
      "{\"type\": \"scenario\", \"version\": 1, \"name\": \"t\"" +
      (extra_fields.empty() ? "" : ", " + extra_fields) + "}";
  std::string error;
  const auto loaded = ScenarioFile::from_json(doc, error);
  ASSERT_FALSE(loaded.has_value()) << doc;
  for (const char* needle : needles) {
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error '" << error << "' does not name '" << needle << "'";
  }
}

TEST(ScenarioFileValidator, UnknownKeyIsNamed) {
  expect_rejected("\"frobnicate\": 3", {"unknown key", "frobnicate"});
}

TEST(ScenarioFileValidator, BadTypeNamesTheField) {
  expect_rejected("\"nodes\": \"plenty\"",
                  {"field 'nodes'", "not an integer"});
  expect_rejected("\"checked\": 3", {"field 'checked'", "not a boolean"});
  expect_rejected("\"timeline\": \"block\"",
                  {"field 'timeline'", "not an array"});
}

TEST(ScenarioFileValidator, OutOfRangeValueSurfacesScenarioValidation) {
  // Scenario::validate's message names the field and the value.
  expect_rejected("\"nodes\": 1", {"cluster_size (1)"});
}

TEST(ScenarioFileValidator, OutOfRangeConfigOverridesAreNamed) {
  // Each parses, but zero intervals would spin the simulator at one virtual
  // instant and a packet smaller than the compound header would wrap the
  // gossip budget.
  expect_rejected("\"config_overrides\": {\"gossip_interval_us\": 0}",
                  {"config.gossip_interval (0 us) must be > 0"});
  expect_rejected("\"config_overrides\": {\"probe_interval_us\": -5}",
                  {"config.probe_interval (-5 us) must be > 0"});
  expect_rejected("\"config_overrides\": {\"max_packet_bytes\": 2}",
                  {"config.max_packet_bytes (2) must be >= 3"});
  // Zero is "disabled" for the periodic exchanges, not an error.
  std::string error;
  EXPECT_TRUE(ScenarioFile::from_json(
                  "{\"type\": \"scenario\", \"version\": 1, \"name\": \"t\", "
                  "\"config_overrides\": {\"push_pull_interval_us\": 0, "
                  "\"reconnect_interval_us\": 0, "
                  "\"join_retry_interval_us\": 0}}",
                  error)
                  .has_value())
      << error;
}

TEST(ScenarioFileValidator, IntegersBeyondTheirFieldAreNamed) {
  // Each fits an int64 but not its int field, where a bare cast would wrap
  // 4294967306 nodes to 10 and a retransmit_mult of 4294967297 to 1.
  expect_rejected("\"nodes\": 4294967306", {"field 'nodes'", "out of range"});
  expect_rejected("\"k\": -2147483649", {"field 'k'", "out of range"});
  for (const std::string key :
       {"indirect_checks", "retransmit_mult", "gossip_fanout", "lhm_max"}) {
    const std::string needle = "field '" + key + "'";
    expect_rejected("\"config_overrides\": {\"" + key + "\": 4294967297}",
                    {needle.c_str(), "out of range"});
  }
  // An int, but past the bound that keeps the retransmit limit an int.
  expect_rejected("\"config_overrides\": {\"retransmit_mult\": 65}",
                  {"config.retransmit_mult (65) must be <= 64"});
}

TEST(ScenarioFileValidator, TrailingColonMembershipSpecIsActionable) {
  expect_rejected("\"membership\": \"central:\"",
                  {"bad membership spec 'central:'",
                   "empty parameter list after 'central:'"});
  expect_rejected("\"membership\": \"carrier-pigeon\"",
                  {"unknown membership backend 'carrier-pigeon'"});
}

TEST(ScenarioFileValidator, EmptyTimelineEntryIsNamed) {
  expect_rejected("\"timeline\": [\"\"]", {"bad timeline spec ''"});
  expect_rejected("\"timeline\": [\"wobble@0s:10s\"]",
                  {"bad timeline spec 'wobble@0s:10s'"});
}

TEST(ScenarioFileValidator, UnknownConfigAndOverrideAreNamed) {
  expect_rejected("\"config\": \"Turbo\"", {"unknown config 'Turbo'"});
  expect_rejected("\"config_overrides\": {\"warp_factor\": 9}",
                  {"unknown config override", "warp_factor"});
  expect_rejected("\"config_overrides\": 5",
                  {"'config_overrides'", "not an object"});
}

TEST(ScenarioFileValidator, WrongDocumentTypeAndVersionAreExplicit) {
  std::string error;
  EXPECT_FALSE(ScenarioFile::from_json(
                   "{\"type\": \"trace\", \"version\": 1, \"name\": \"t\"}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("type is 'trace'"), std::string::npos) << error;

  EXPECT_FALSE(ScenarioFile::from_json(
                   "{\"type\": \"scenario\", \"version\": 7, "
                   "\"name\": \"t\"}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("version 7"), std::string::npos) << error;

  EXPECT_FALSE(ScenarioFile::from_json("not json at all", error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioFileValidator, MissingNameIsRequired) {
  std::string error;
  EXPECT_FALSE(
      ScenarioFile::from_json("{\"type\": \"scenario\", \"version\": 1}",
                              error)
          .has_value());
  EXPECT_NE(error.find("'name'"), std::string::npos) << error;
}

TEST(BaselinesValidator, StrictAboutKeysTypesAndDuplicates) {
  std::string error;
  EXPECT_FALSE(baselines_from_json(
                   "{\"type\": \"scenario-baselines\", \"version\": 1, "
                   "\"entries\": [], \"bogus\": 1}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  EXPECT_FALSE(baselines_from_json(
                   "{\"type\": \"trace\", \"version\": 1, \"entries\": []}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("type is 'trace'"), std::string::npos) << error;

  const std::string dup =
      "{\"type\": \"scenario-baselines\", \"version\": 1, \"entries\": ["
      "{\"scenario\": \"a\", \"seed\": \"1\", \"bands\": []},"
      "{\"scenario\": \"a\", \"seed\": \"1\", \"bands\": []}]}";
  EXPECT_FALSE(baselines_from_json(dup, error).has_value());
  EXPECT_NE(error.find("duplicate baseline entry 'a'"), std::string::npos)
      << error;

  const std::string bad_band =
      "{\"type\": \"scenario-baselines\", \"version\": 1, \"entries\": ["
      "{\"scenario\": \"a\", \"seed\": \"1\", \"bands\": ["
      "{\"metric\": \"fp_events\", \"lo\": 0, \"ceiling\": 4}]}]}";
  EXPECT_FALSE(baselines_from_json(bad_band, error).has_value());
  EXPECT_NE(error.find("ceiling"), std::string::npos) << error;
  EXPECT_NE(error.find("'a'"), std::string::npos) << error;
}

}  // namespace
}  // namespace lifeguard::harness
