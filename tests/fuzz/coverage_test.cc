// check::CoverageCollector unit tests.
//
// The coverage signal is the fuzzer's fitness function, so it has to be a
// pure deterministic function of the merged TraceEvent stream: identical
// streams produce identical key sets and digests, streams that differ in a
// state-transition edge produce different key sets, and a real scenario's
// digest is stable enough to pin as a golden value (any unintentional
// change to the key construction breaks the committed corpus' meaning).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/coverage.h"
#include "check/events.h"
#include "harness/scenario.h"

namespace lifeguard {
namespace {

using check::CoverageCollector;
using check::TraceEvent;
using check::TraceEventKind;

TraceEvent member_event(double at_s, TraceEventKind kind, int node, int peer,
                        bool originated = false) {
  TraceEvent e;
  e.at = TimePoint{static_cast<std::int64_t>(at_s * 1e6)};
  e.kind = kind;
  e.node = node;
  e.peer = peer;
  e.origin = originated ? node : -1;
  e.originated = originated;
  return e;
}

/// A small synthetic stream: node 0 watches node 1 go suspect -> failed.
std::vector<TraceEvent> suspect_then_failed() {
  return {member_event(1.0, TraceEventKind::kAlive, 0, 1),
          member_event(2.0, TraceEventKind::kSuspect, 0, 1, true),
          member_event(5.0, TraceEventKind::kFailed, 0, 1, true)};
}

TEST(Coverage, IdenticalStreamsProduceIdenticalKeysAndDigest) {
  CoverageCollector a, b;
  for (const TraceEvent& e : suspect_then_failed()) {
    a.on_trace_event(e);
    b.on_trace_event(e);
  }
  EXPECT_FALSE(a.keys().empty());
  EXPECT_EQ(a.keys(), b.keys());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Coverage, KeysAreSortedAndUnique) {
  CoverageCollector c;
  for (const TraceEvent& e : suspect_then_failed()) c.on_trace_event(e);
  const std::vector<std::uint64_t> keys = c.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Coverage, DistinctTransitionEdgesProduceDistinctKeys) {
  // suspect -> failed vs suspect -> alive (a refutation): different edges,
  // so the key sets must differ.
  CoverageCollector failed, refuted;
  for (const TraceEvent& e : suspect_then_failed()) failed.on_trace_event(e);
  refuted.on_trace_event(member_event(1.0, TraceEventKind::kAlive, 0, 1));
  refuted.on_trace_event(member_event(2.0, TraceEventKind::kSuspect, 0, 1,
                                      true));
  refuted.on_trace_event(member_event(5.0, TraceEventKind::kAlive, 0, 1));
  EXPECT_NE(failed.keys(), refuted.keys());
  EXPECT_NE(failed.digest(), refuted.digest());
}

TEST(Coverage, SuspicionWindowBucketsAreCoverage) {
  // The same edges with a 3 s vs a 100 s suspect->failed window land in
  // different log2 buckets — latency regimes are coverage, not noise.
  CoverageCollector fast, slow;
  fast.on_trace_event(member_event(2.0, TraceEventKind::kSuspect, 0, 1));
  fast.on_trace_event(member_event(5.0, TraceEventKind::kFailed, 0, 1));
  slow.on_trace_event(member_event(2.0, TraceEventKind::kSuspect, 0, 1));
  slow.on_trace_event(member_event(102.0, TraceEventKind::kFailed, 0, 1));
  EXPECT_NE(fast.keys(), slow.keys());
}

TEST(Coverage, EventVolumeBucketsAreCoverage) {
  // Identical edge sets at 2 vs 32 suspicion events: the log2 count bucket
  // separates them.
  CoverageCollector few, many;
  auto flap = [](CoverageCollector& c, int times) {
    for (int i = 0; i < times; ++i) {
      c.on_trace_event(member_event(i + 1.0, TraceEventKind::kSuspect, 0, 1));
      c.on_trace_event(member_event(i + 1.5, TraceEventKind::kAlive, 0, 1));
    }
  };
  flap(few, 2);
  flap(many, 32);
  EXPECT_NE(few.keys(), many.keys());
}

TEST(Coverage, FaultSpansContextualizeMemberEvents) {
  // The same suspect edge inside vs outside an active fault span yields
  // different coverage (the span x state feature), and the kind mapping
  // comes from the constructor's entry list.
  CoverageCollector bare, spanned({fault::FaultKind::kBlock});
  auto fault_edge = [](TraceEventKind kind, double at_s, int entry) {
    TraceEvent e;
    e.at = TimePoint{static_cast<std::int64_t>(at_s * 1e6)};
    e.kind = kind;
    e.node = -1;
    e.peer = entry;
    return e;
  };
  spanned.on_trace_event(fault_edge(TraceEventKind::kFaultStart, 1.0, 0));
  bare.on_trace_event(member_event(2.0, TraceEventKind::kSuspect, 0, 1));
  spanned.on_trace_event(member_event(2.0, TraceEventKind::kSuspect, 0, 1));
  spanned.on_trace_event(fault_edge(TraceEventKind::kFaultEnd, 3.0, 0));
  EXPECT_NE(bare.keys(), spanned.keys());
}

// The golden digest: coverage of the cataloged table4-false-positives
// scenario, pinned so any change to the key construction is a conscious,
// reviewed decision — the committed scenarios/fuzz-corpus/coverage.json
// digests mean nothing if this can drift silently.
TEST(Coverage, GoldenDigestForTable4FalsePositives) {
  const harness::Scenario* s =
      harness::ScenarioRegistry::builtin().find("table4-false-positives");
  ASSERT_NE(s, nullptr);
  std::vector<fault::FaultKind> kinds;
  for (const fault::TimelineEntry& e : s->timeline.entries()) {
    kinds.push_back(e.fault.kind);
  }
  CoverageCollector c(kinds);
  (void)harness::run(*s, {&c});
  EXPECT_FALSE(c.keys().empty());
  EXPECT_EQ(c.digest(), 9387093213438253272ULL)
      << "keys: " << c.keys().size();
}

}  // namespace
}  // namespace lifeguard
