// Trace record–replay: golden equality between a live run and its replay,
// the JSONL round-trip, and the --fault-grammar entry specs the header is
// serialized with.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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

/// Record `name`, persist the trace to disk, reload it, rebuild the
/// scenario from the header alone, replay, and pin bit-for-bit equality of
/// both the event stream and the paper metrics.
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
  EXPECT_EQ(loaded->header.timeline, recorder.trace().header.timeline);

  const auto rebuilt = check::scenario_from_header(loaded->header, error);
  ASSERT_TRUE(rebuilt.has_value()) << error;
  const check::ReplayResult r = check::replay(*rebuilt, *loaded);
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
  t.header = check::make_header(s);
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
  EXPECT_EQ(loaded->header.scenario, s.name);
  EXPECT_EQ(loaded->header.seed, s.seed);
  EXPECT_EQ(loaded->header.cluster_size, s.cluster_size);
  EXPECT_EQ(loaded->header.config_name, "Lifeguard");
  EXPECT_EQ(loaded->header.timeline,
            check::timeline_specs(s.timeline));
  EXPECT_TRUE(loaded->header.checks.enabled);
  EXPECT_EQ(loaded->header.checks.suspicion_cap, msec(123));
  EXPECT_EQ(loaded->header.checks.invariants,
            (std::vector<std::string>{"suspicion-bounds", "convergence"}));
}

TEST(TraceFormat, TruncatedTraceIsRejected) {
  Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  check::Trace t;
  t.header = check::make_header(s);
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

// A config that deviates from its preset beyond the suspicion tuning must
// be recorded as "Custom" — replay-from-file would otherwise silently
// rebuild the wrong run and blame the divergence on the engine.
TEST(TraceFormat, HandTunedConfigIsRecordedAsCustomAndRejectedByReplay) {
  Scenario s = *ScenarioRegistry::builtin().find("steady-state");
  s.config.probe_interval = msec(500);  // not representable in the header
  const check::TraceHeader header = check::make_header(s);
  EXPECT_EQ(header.config_name, "Custom");
  std::string error;
  EXPECT_FALSE(check::scenario_from_header(header, error).has_value());
  EXPECT_NE(error.find("Custom"), std::string::npos);

  // table7's alpha/beta tuning IS representable: stays a preset.
  const Scenario* t7 = ScenarioRegistry::builtin().find("table7-alpha-beta");
  ASSERT_NE(t7, nullptr);
  EXPECT_EQ(check::make_header(*t7).config_name, "Lifeguard");
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
