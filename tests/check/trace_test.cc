// Trace record–replay: golden equality between a live run and its replay
// from the saved file, the JSONL round-trip and its strict header reader,
// and the --fault-grammar entry specs the header's timeline is written in.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/replay.h"
#include "check/trace.h"
#include "fault/fault.h"
#include "harness/scenario.h"

namespace lifeguard {
namespace {

using harness::RunResult;
using harness::Scenario;
using harness::ScenarioRegistry;

void expect_same_metrics(const RunResult& live, const RunResult& replayed) {
  EXPECT_EQ(live.scenario_name, replayed.scenario_name);
  EXPECT_EQ(live.cluster_size, replayed.cluster_size);
  EXPECT_EQ(live.victims, replayed.victims);
  EXPECT_EQ(live.fp_events, replayed.fp_events);
  EXPECT_EQ(live.fp_healthy_events, replayed.fp_healthy_events);
  EXPECT_EQ(live.msgs_sent, replayed.msgs_sent);
  EXPECT_EQ(live.bytes_sent, replayed.bytes_sent);
  EXPECT_EQ(live.first_detect, replayed.first_detect);
  EXPECT_EQ(live.full_dissem, replayed.full_dissem);
}

/// Replace the one occurrence of `from` in a saved trace with `to`, and
/// expect the loader to reject the result with an error naming `needle`.
void expect_rejected(const std::string& text, const std::string& from,
                     const std::string& to, const std::string& needle) {
  std::string bad = text;
  const std::size_t at = bad.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  bad.replace(at, from.size(), to);
  std::stringstream in(bad);
  std::string error;
  EXPECT_FALSE(check::load_trace(in, error).has_value()) << to;
  EXPECT_NE(error.find(needle), std::string::npos) << to << ": " << error;
}

/// Record `name`, persist the trace to disk, reload it, replay the scenario
/// the file carries, and pin bit-for-bit equality of both the event stream
/// and the paper metrics.
void golden_roundtrip(const std::string& name) {
  const Scenario* base = ScenarioRegistry::builtin().find(name);
  ASSERT_NE(base, nullptr) << name;
  Scenario s = *base;
  s.checks = check::Spec::all();

  check::TraceRecorder recorder(s);
  const RunResult live = harness::run(s, {&recorder});
  ASSERT_TRUE(live.checks.passed()) << name;

  std::filesystem::create_directories("traces");
  const std::string path = "traces/golden-" + name + ".trace.jsonl";
  std::string error;
  ASSERT_TRUE(check::save_trace_file(recorder.trace(), path, error)) << error;

  const auto loaded = check::load_trace_file(path, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->events, recorder.trace().events);
  EXPECT_EQ(check::timeline_specs(loaded->scenario.timeline),
            check::timeline_specs(s.timeline));

  const check::ReplayResult r = check::replay(loaded->scenario, *loaded);
  EXPECT_TRUE(r.matches) << r.divergence;
  expect_same_metrics(live, r.result);
  EXPECT_TRUE(r.result.checks.passed());
  std::remove(path.c_str());
}

// The paper's interval workload (Table IV grid point) and the heaviest
// composed network-fault scenario — one process-level, one network-level.
TEST(GoldenTrace, PaperIntervalScenarioReplaysBitForBit) {
  golden_roundtrip("table4-false-positives");
}

TEST(GoldenTrace, PacketChaosScenarioReplaysBitForBit) {
  golden_roundtrip("packet-chaos");
}

// A perturbed seed must be caught — the stream comparison is the whole
// point of replay verification.
TEST(GoldenTrace, SeedPerturbationDiverges) {
  Scenario s = *ScenarioRegistry::builtin().find("partition-split-heal");
  s.cluster_size = 10;
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(4);
  s.run_length = sec(80);

  check::TraceRecorder recorder(s);
  harness::run(s, {&recorder});

  Scenario other = s;
  other.seed = s.seed + 1;
  const check::ReplayResult r = check::replay(other, recorder.trace());
  EXPECT_FALSE(r.matches);
  EXPECT_FALSE(r.divergence.empty());
}

TEST(TraceFormat, SaveLoadRoundTripsHeaderAndEvents) {
  Scenario s = *ScenarioRegistry::builtin().find("lossy-flapping");
  s.checks = check::Spec::all();
  s.checks.suspicion_cap = msec(123);
  s.checks.invariants = {"suspicion-bounds", "convergence"};
  check::Trace t;
  t.scenario = s;
  check::TraceEvent e;
  e.at = TimePoint{1234567};
  e.kind = check::TraceEventKind::kSuspect;
  e.node = 3;
  e.peer = 7;
  e.origin = 3;
  e.incarnation = 2;
  e.originated = true;
  t.events.push_back(e);
  e.kind = check::TraceEventKind::kFaultStart;
  e.node = -1;
  e.peer = 1;
  e.origin = -1;
  e.incarnation = 0;
  e.originated = false;
  t.events.push_back(e);

  std::stringstream buf;
  check::save_trace(t, buf);
  std::string error;
  const auto loaded = check::load_trace(buf, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->events, t.events);
  EXPECT_EQ(loaded->scenario.name, s.name);
  EXPECT_EQ(loaded->scenario.seed, s.seed);
  EXPECT_EQ(loaded->scenario.cluster_size, s.cluster_size);
  EXPECT_TRUE(loaded->scenario.config == s.config);
  EXPECT_EQ(check::timeline_specs(loaded->scenario.timeline),
            check::timeline_specs(s.timeline));
  EXPECT_TRUE(loaded->scenario.checks.enabled);
  EXPECT_EQ(loaded->scenario.checks.suspicion_cap, msec(123));
  EXPECT_EQ(loaded->scenario.checks.invariants,
            (std::vector<std::string>{"suspicion-bounds", "convergence"}));
}

TEST(TraceFormat, TruncatedTraceIsRejected) {
  Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  check::Trace t;
  t.scenario = s;
  std::stringstream buf;
  check::save_trace(t, buf);
  std::string full = buf.str();
  // Drop the footer line.
  full.erase(full.rfind("{\"type\":\"end\""));
  std::stringstream cut(full);
  std::string error;
  EXPECT_FALSE(check::load_trace(cut, error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(TraceFormat, IntegersBeyondTheirFieldAreRejected) {
  // Each value fits an int64 but not its field, where a bare cast would
  // wrap 4294967306 nodes to 10, rbuf -1 to SIZE_MAX and node index
  // 4294967296 to 0; an incarnation of "-1" is not an unsigned integer,
  // though strtoull reads it as 2^64 - 1.
  const Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  check::Trace t;
  t.scenario = s;
  check::TraceEvent e;
  e.at = TimePoint{1};
  e.kind = check::TraceEventKind::kSuspect;
  e.node = 3;
  e.peer = 7;
  e.origin = 3;
  e.incarnation = 5;
  t.events.push_back(e);
  std::stringstream buf;
  check::save_trace(t, buf);
  const std::string text = buf.str();
  const auto field = [](const char* key, auto value) {
    return "\"" + std::string(key) + "\":" + std::to_string(value);
  };
  const struct {
    std::string from, to, key;
  } cases[] = {
      {field("nodes", s.cluster_size), field("nodes", 4294967306), "'nodes'"},
      {field("k", s.config.suspicion_k), field("k", 2147483648), "'k'"},
      {field("rbuf", s.recv_buffer_bytes), field("rbuf", -1), "'rbuf'"},
      {field("max_violations", s.checks.max_violations),
       field("max_violations", -1), "'max_violations'"},
      {field("n", 3), field("n", 4294967296), "'n'"},
      {field("m", 7), field("m", -4294967297), "'m'"},
      {field("o", 3), field("o", 2147483648), "'o'"},
      {field("inc", 5), "\"inc\":\"-1\"", "'inc'"},
  };
  for (const auto& c : cases) expect_rejected(text, c.from, c.to, c.key);
}

// Every fault kind's entry spec must reconstruct the entry exactly through
// the public --fault grammar.
TEST(TraceFormat, EntrySpecsRoundTripEveryFaultKind) {
  fault::StressParams stress;
  stress.block_min = msec(1500);
  stress.block_max = sec(30);
  stress.run_min = msec(2);
  stress.run_max = msec(70);
  fault::Timeline tl;
  tl.add(sec(1), sec(16), fault::Fault::block(),
         fault::VictimSelector::uniform(4));
  tl.add(sec(2), sec(60), fault::Fault::interval_block(msec(16384), msec(4)),
         fault::VictimSelector::nodes({1, 3, 5}));
  tl.add(sec(3), sec(45), fault::Fault::stressed(stress),
         fault::VictimSelector::fraction_of(0.25));
  tl.add(sec(4), sec(30), fault::Fault::flapping(sec(8), msec(100)),
         fault::VictimSelector::island(4, 2));
  tl.add(sec(5), sec(50), fault::Fault::churn(sec(10), sec(20)),
         fault::VictimSelector::uniform(3));
  tl.add(sec(6), sec(20), fault::Fault::partition(),
         fault::VictimSelector::uniform(5));
  tl.add(sec(7), sec(40), fault::Fault::link_loss(0.3, 0.15),
         fault::VictimSelector::fraction_of(0.5));
  tl.add(sec(8), sec(35), fault::Fault::latency(msec(30), msec(20)),
         fault::VictimSelector::uniform(6));
  tl.add(sec(9), sec(25), fault::Fault::duplicate(0.25),
         fault::VictimSelector::uniform(2));
  tl.add(sec(10), sec(15), fault::Fault::reorder(0.3, msec(200)),
         fault::VictimSelector::uniform(2));

  const std::vector<std::string> specs = check::timeline_specs(tl);
  std::string error;
  const auto back = check::timeline_from_specs(specs, error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), tl.size());
  // Round-trip fidelity: re-rendering the parsed entries must reproduce the
  // specs byte for byte (the entry fields have no independent operator==).
  EXPECT_EQ(check::timeline_specs(*back), specs);
  EXPECT_EQ(back->summary(), tl.summary());
}

// A config tuned beyond its preset's alpha/beta/k travels in the header's
// config_overrides, so its trace replays from the file alone.
TEST(TraceFormat, HandTunedConfigReplaysBitForBitFromItsFile) {
  Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  s.config.probe_interval = msec(500);
  ASSERT_EQ(s.config.table1_name(), "Lifeguard");

  check::TraceRecorder recorder(s);
  const RunResult live = harness::run(s, {&recorder});
  std::filesystem::create_directories("traces");
  const std::string path = "traces/hand-tuned.trace.jsonl";
  std::string error;
  ASSERT_TRUE(check::save_trace_file(recorder.trace(), path, error)) << error;

  std::ifstream file(path);
  std::string header;
  std::getline(file, header);
  EXPECT_NE(header.find("\"config\":\"Lifeguard\",\"alpha\":5,\"beta\":6,"
                        "\"k\":3,\"config_overrides\":{"
                        "\"probe_interval_us\":500000},"),
            std::string::npos)
      << header;

  const auto loaded = check::load_trace_file(path, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->scenario.config == s.config);
  const check::ReplayResult r = check::replay(loaded->scenario, *loaded);
  EXPECT_TRUE(r.matches) << r.divergence;
  expect_same_metrics(live, r.result);
  std::remove(path.c_str());
}

// The header is read by the scenario files' strict reader: a key it does
// not know, or a value of the wrong type, is an error naming the key rather
// than a silently different run.
TEST(TraceFormat, HeaderRejectsUnknownKeysAndMistypedValues) {
  check::Trace t;
  t.scenario = *ScenarioRegistry::builtin().find("packet-chaos");
  t.scenario.checks = check::Spec::all();
  std::stringstream buf;
  check::save_trace(t, buf);
  const std::string text = buf.str();
  const struct {
    std::string from, to, needle;
  } cases[] = {
      {"\"version\":1,", "\"version\":1,\"bogus\":1,", "'bogus'"},
      {"\"version\":1,", "\"version\":2,", "version 2"},
      {"\"checked\":true", "\"checked\":\"yes\"", "'checked'"},
      {"\"spans\":false", "\"spans\":\"yes\"", "'spans'"},
      // How a hand-tuned config was recorded before headers carried
      // config_overrides: "Custom" and nothing else, which would rebuild
      // the preset's run instead of the recorded one.
      {"\"config\":\"Lifeguard\"", "\"config\":\"Custom\"", "'Custom'"},
  };
  for (const auto& c : cases) expect_rejected(text, c.from, c.to, c.needle);
}

TEST(TraceFormat, NodeIndexParsing) {
  EXPECT_EQ(check::node_index_of("node-0"), 0);
  EXPECT_EQ(check::node_index_of("node-128"), 128);
  EXPECT_EQ(check::node_index_of("node-"), -1);
  EXPECT_EQ(check::node_index_of("peer-3"), -1);
  EXPECT_EQ(check::node_index_of("node-12x"), -1);
}

TEST(TraceFormat, SpecValidationCatchesBadKnobs) {
  check::Spec spec = check::Spec::all();
  spec.timeout_slack = 1.5;
  spec.max_violations = 0;
  spec.invariants = {"convergence", "convergence"};
  const auto errors = spec.validate();
  EXPECT_EQ(errors.size(), 3u);
}

}  // namespace
}  // namespace lifeguard
