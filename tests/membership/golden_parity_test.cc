// Golden-seed bit-parity for the swim backend behind the membership seam.
//
// The expected values below were first captured by running these exact
// scenarios BEFORE swim::Node moved behind membership::Backend (when the
// simulator constructed Nodes directly). The refactor's contract is
// bit-parity: the same Rng draw order, the same event stream, the same
// trace bytes. Any drift here — one extra Rng draw in a constructor, a
// reordered fork, an extra sampler emission — changes these numbers and
// fails loudly. They were re-captured once, on purpose, when the membership
// table moved to dense slots and its uniform picks stopped following
// hash-map order (docs/benchmarks.md, "The first deliberate re-golden").
//
// The trace digest is FNV-1a 64 over the full save_trace() output, so it
// covers the header (config echo, checks, membership), every membership
// transition, every fault marker and every metric sample byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "check/spec.h"
#include "check/trace.h"
#include "harness/scenario.h"

namespace lifeguard::membership {
namespace {

using harness::RunResult;
using harness::Scenario;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Captured {
  RunResult result;
  check::Trace trace;
  std::uint64_t trace_digest = 0;
};

Captured capture(const Scenario& s, bool probe_spans = false) {
  check::TraceRecorder rec(s, /*include_datagrams=*/false, probe_spans);
  Captured c;
  c.result = harness::run(s, {&rec});
  std::ostringstream os;
  check::save_trace(rec.trace(), os);
  c.trace = rec.trace();
  c.trace_digest = fnv1a(os.str());
  return c;
}

TEST(GoldenParity, PartitionSplitHealRegistryScenario) {
  const Scenario* s =
      harness::ScenarioRegistry::builtin().find("partition-split-heal");
  ASSERT_NE(s, nullptr);
  const Captured c = capture(*s);
  EXPECT_EQ(c.result.fp_events, 26);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 7711);
  EXPECT_EQ(c.result.bytes_sent, 397225);
  const std::vector<double> first_detect = {
      16.316441000000001, 10.440968,          7.5465400000000002,
      15.199389999999999, 7.4505400000000002, 7.4409679999999998,
      15.429940999999999, 16.977868999999998};
  const std::vector<double> full_dissem = {
      17.245404000000001, 11.063345,          8.2053809999999991,
      15.292059999999999, 7.7442719999999996, 7.5873340000000002,
      16.150531000000001, 26.407450999999998};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.trace.events.size(), 800u);
  EXPECT_EQ(c.trace_digest, 16345360116190418353ull);
}

TEST(GoldenParity, CheckedRunWithMetricsSampling) {
  // Invariants on, 500 ms sampling: the digest covers every kMetricSample
  // the swim sampler path emits — the sampler refactor onto Agent virtuals
  // must not move a single byte.
  Scenario s;
  s.name = "golden-checked";
  s.summary = "golden";
  s.cluster_size = 12;
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(16), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.quiesce = sec(15);
  s.run_length = sec(60);
  s.checks = check::Spec::all();
  s.metrics_interval = msec(500);
  s.seed = 7;
  const Captured c = capture(s);
  EXPECT_EQ(c.result.fp_events, 0);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 2946);
  EXPECT_EQ(c.result.bytes_sent, 115327);
  const std::vector<double> first_detect = {6.8928859999999998,
                                            8.2517849999999999};
  const std::vector<double> full_dissem = {7.0307259999999996,
                                           8.5134419999999995};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.result.checks.total_violations, 0);
  EXPECT_EQ(c.result.series.size(), 2400u);
  EXPECT_EQ(c.trace.events.size(), 2642u);
  EXPECT_EQ(c.trace_digest, 13160642880555304535ull);
}

TEST(GoldenParity, ChurnRestartsRebuildNodesThroughTheBackend) {
  // Churn exercises restart_node — post-refactor the replacement agent comes
  // from Backend::create, which must draw nothing the old direct
  // construction didn't.
  Scenario s;
  s.name = "golden-churn";
  s.summary = "golden";
  s.cluster_size = 16;
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(60), fault::Fault::churn(sec(10), sec(20)),
                 fault::VictimSelector::uniform(3));
  s.quiesce = sec(15);
  s.run_length = sec(60);
  s.seed = 3;
  const Captured c = capture(s);
  EXPECT_EQ(c.result.fp_events, 0);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 6467);
  EXPECT_EQ(c.result.bytes_sent, 266167);
  const std::vector<double> first_detect = {27.738073, 15.544086999999999,
                                            21.377628999999999};
  const std::vector<double> full_dissem = {27.949489, 15.858150999999999,
                                           21.729011};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.trace.events.size(), 593u);
  EXPECT_EQ(c.trace_digest, 13035817324022135376ull);
}

TEST(GoldenParity, ProbeSpansRecordEveryProbeStage) {
  // Spans on: the digest covers every probe-round record (start, ack,
  // indirect, fail, nack) byte for byte, so a change to how a probe stage
  // leaves the agent cannot move one.
  Scenario s;
  s.name = "golden-spans";
  s.summary = "golden";
  s.cluster_size = 10;
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(12), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.quiesce = sec(10);
  s.run_length = sec(30);
  s.seed = 11;
  const Captured c = capture(s, /*probe_spans=*/true);
  for (check::TraceEventKind k :
       {check::TraceEventKind::kProbeStart, check::TraceEventKind::kProbeAck,
        check::TraceEventKind::kProbeIndirect,
        check::TraceEventKind::kProbeFail,
        check::TraceEventKind::kProbeNack}) {
    EXPECT_TRUE(std::any_of(
        c.trace.events.begin(), c.trace.events.end(),
        [k](const check::TraceEvent& e) { return e.kind == k; }))
        << check::trace_event_kind_name(k);
  }
  EXPECT_EQ(c.trace.events.size(), 898u);
  EXPECT_EQ(c.trace_digest, 221782765866683033ull);
}

}  // namespace
}  // namespace lifeguard::membership
