// The live worker's --config argument: the scenario codec's config object
// (`config`, `alpha`, `beta`, `k`, `config_overrides` on one line), written
// by ScenarioFile::config_members and read by config_from_json. A worker
// configured through argv has to run the same protocol parameters the
// simulator would, and a version-skewed or out-of-range config has to fail
// at spawn naming the field. Pure codec tests: no process is spawned.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "harness/scenariofile.h"
#include "swim/config.h"

namespace lifeguard::harness {
namespace {

std::optional<swim::Config> round_trip(const swim::Config& c,
                                       std::string& error) {
  return ScenarioFile::config_from_json(
      "{" + ScenarioFile::config_members(c) + "}", error);
}

TEST(LiveControl, ConfigRoundTripDefault) {
  std::string error;
  const auto decoded = round_trip(swim::Config{}, error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, swim::Config{});
  EXPECT_EQ(ScenarioFile::config_members(swim::Config{}),
            "\"config\":\"Lifeguard\",\"alpha\":5,\"beta\":6,\"k\":3");
}

TEST(LiveControl, ConfigRoundTripEveryFieldNonDefault) {
  swim::Config c;
  c.probe_interval = msec(123);
  c.probe_timeout = msec(45);
  c.indirect_checks = 7;
  c.reliable_fallback_probe = false;
  c.retransmit_mult = 9;
  c.gossip_interval = msec(77);
  c.gossip_fanout = 5;
  c.gossip_to_dead = sec(11);
  c.max_packet_bytes = 512;
  c.push_pull_interval = sec(41);
  c.reconnect_interval = sec(13);
  c.join_retry_interval = msec(2500);
  c.suspicion_alpha = 3.25;
  c.suspicion_beta = 1.75;
  c.suspicion_k = 2;
  c.lha_probe = false;
  c.lha_suspicion = false;
  c.buddy_system = false;
  c.lhm_max = 4;
  c.nack_fraction = 0.6180339887498949;  // full double precision must survive
  c.nack_enabled = false;
  c.dead_reclaim_after = sec(33);

  std::string error;
  const auto decoded = round_trip(c, error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, c);
}

TEST(LiveControl, ConfigRejectsUnknownKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"{\"config_overrides\":{\"probe_interval_us\":1000},\"zz\":3}",
       "'zz'"},
      {"{\"config_overrides\":{\"probe_interval_us\":1000,\"zz\":3}}",
       "'zz'"},
      // A scenario key, but not a config key.
      {"{\"config\":\"SWIM\",\"nodes\":3}", "'nodes'"},
  };
  for (const auto& [text, key] : cases) {
    std::string error;
    EXPECT_FALSE(ScenarioFile::config_from_json(text, error).has_value())
        << text;
    EXPECT_NE(error.find(key), std::string::npos) << text << ": " << error;
  }
}

TEST(LiveControl, ConfigRejectsOutOfRangeValuesNamingTheField) {
  // Each parses, but would spin the worker at one instant (intervals) or
  // wrap the gossip budget (a packet smaller than the compound header).
  const std::pair<const char*, const char*> cases[] = {
      {"{\"config_overrides\":{\"gossip_interval_us\":0}}", "gossip_interval"},
      {"{\"config_overrides\":{\"probe_interval_us\":-1000}}",
       "probe_interval"},
      {"{\"config_overrides\":{\"max_packet_bytes\":2}}", "max_packet_bytes"},
      {"{\"beta\":0.5}", "suspicion_beta"},
      // Integers the field's type cannot hold, which a bare cast would
      // wrap (max_packet_bytes -1 to SIZE_MAX, retransmit_mult 4294967297
      // to 1), and a multiplier past Config::validate's bound.
      {"{\"config_overrides\":{\"indirect_checks\":4294967296}}",
       "'indirect_checks'"},
      {"{\"config_overrides\":{\"retransmit_mult\":4294967297}}",
       "'retransmit_mult'"},
      {"{\"config_overrides\":{\"gossip_fanout\":-4294967295}}",
       "'gossip_fanout'"},
      {"{\"config_overrides\":{\"max_packet_bytes\":-1}}",
       "'max_packet_bytes'"},
      {"{\"k\":2147483648}", "'k'"},
      {"{\"config_overrides\":{\"lhm_max\":-2147483649}}", "'lhm_max'"},
      {"{\"config_overrides\":{\"retransmit_mult\":65}}", "retransmit_mult"},
  };
  for (const auto& [text, field] : cases) {
    std::string error;
    EXPECT_FALSE(ScenarioFile::config_from_json(text, error).has_value())
        << text;
    EXPECT_NE(error.find(field), std::string::npos) << text << ": " << error;
  }
  // Zero is "disabled" for the periodic exchanges, not an error.
  std::string error;
  EXPECT_TRUE(ScenarioFile::config_from_json(
                  "{\"config_overrides\":{\"push_pull_interval_us\":0,"
                  "\"reconnect_interval_us\":0,\"join_retry_interval_us\":0}}",
                  error)
                  .has_value())
      << error;
}

}  // namespace
}  // namespace lifeguard::harness
