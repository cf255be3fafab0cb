// FailureAccounting on hand-built event streams: the §V-F1/F2 definitions
// (FP, FP⁻, first detection, full dissemination) one rule at a time.
#include "harness/accounting.h"

#include <gtest/gtest.h>

#include <vector>

namespace lifeguard::harness {
namespace {

constexpr TimePoint kStart{10'000'000};  // the anomaly start: 10 s

check::TraceEvent failed(double at_s, int reporter, int subject,
                         bool originated) {
  check::TraceEvent e;
  e.at = TimePoint{static_cast<std::int64_t>(at_s * 1e6)};
  e.kind = check::TraceEventKind::kFailed;
  e.node = reporter;
  e.peer = subject;
  e.originated = originated;
  return e;
}

/// Run `events` through a fresh sink over a `n`-node cluster whose victims
/// are `victims`, started at kStart.
RunResult account(int n, const std::vector<int>& victims,
                  const std::vector<check::TraceEvent>& events) {
  FailureAccounting acc(n);
  acc.begin(kStart, victims);
  for (const check::TraceEvent& e : events) acc.on_trace_event(e);
  RunResult out;
  acc.fill(out);
  return out;
}

TEST(FailureAccounting, EventsBeforeTheAnomalyStartAreIgnored) {
  const std::vector<check::TraceEvent> events = {
      failed(9.0, 0, 1, true),   // FP during the quiesce
      failed(9.5, 0, 3, true),   // victim detected during the quiesce
      failed(9.9, 2, 3, false),  // ...and disseminated
  };
  const RunResult r = account(4, {3}, events);
  EXPECT_EQ(r.fp_events, 0);
  EXPECT_EQ(r.fp_healthy_events, 0);
  EXPECT_TRUE(r.first_detect.empty());
  EXPECT_TRUE(r.full_dissem.empty());

  // Nothing counts before begin() either, whatever the timestamp.
  FailureAccounting acc(4);
  acc.on_trace_event(failed(11.0, 0, 1, true));
  acc.begin(kStart, {3});
  RunResult out;
  acc.fill(out);
  EXPECT_EQ(out.fp_events, 0);
}

TEST(FailureAccounting, FpMinusDependsOnTheReporter) {
  // Node 1 is healthy; node 0 (healthy) and node 3 (a victim) each
  // originate a declaration about it. Both are FP; only node 0's is FP⁻.
  const RunResult r = account(4, {3}, {failed(11.0, 0, 1, true),
                                       failed(12.0, 3, 1, true)});
  EXPECT_EQ(r.fp_events, 2);
  EXPECT_EQ(r.fp_healthy_events, 1);
  // A gossiped declaration about a healthy member is not an FP.
  const RunResult gossip = account(4, {3}, {failed(11.0, 0, 1, false)});
  EXPECT_EQ(gossip.fp_events, 0);
  EXPECT_EQ(gossip.fp_healthy_events, 0);
}

TEST(FailureAccounting, DetectionByAnotherVictimCountsForFirstDetect) {
  // Victims 2 and 3: victim 2 is the first to originate a declaration about
  // victim 3, a healthy member follows later.
  const RunResult r = account(4, {2, 3}, {failed(12.0, 2, 3, true),
                                          failed(13.0, 0, 3, true)});
  ASSERT_EQ(r.first_detect.size(), 1u);
  EXPECT_DOUBLE_EQ(r.first_detect[0], 2.0);
  // A victim declaring another victim is no false positive.
  EXPECT_EQ(r.fp_events, 0);
}

TEST(FailureAccounting, FullDisseminationNeedsEveryHealthyMembersFirstMark) {
  // n = 4, victim 3: healthy members 0, 1 and 2 must all mark it.
  std::vector<check::TraceEvent> events = {
      failed(11.0, 0, 3, true),
      failed(12.0, 1, 3, false),
      failed(12.5, 1, 3, false),  // a later mark by the same member
  };
  const RunResult partial = account(4, {3}, events);
  ASSERT_EQ(partial.first_detect.size(), 1u);
  EXPECT_DOUBLE_EQ(partial.first_detect[0], 1.0);
  EXPECT_TRUE(partial.full_dissem.empty()) << "node 2 never marked it";

  events.push_back(failed(14.0, 2, 3, false));
  events.push_back(failed(15.0, 2, 3, false));
  const RunResult full = account(4, {3}, events);
  ASSERT_EQ(full.full_dissem.size(), 1u);
  // The last healthy member's *first* mark: node 2 at 14 s.
  EXPECT_DOUBLE_EQ(full.full_dissem[0], 4.0);
}

TEST(FailureAccounting, FullDisseminationDoesNotWaitForOtherVictims) {
  // Victims 2 and 3: victim 2 never marks victim 3, yet the healthy members
  // 0 and 1 suffice.
  const RunResult r = account(4, {2, 3}, {failed(11.0, 0, 3, true),
                                          failed(11.5, 1, 3, false)});
  ASSERT_EQ(r.full_dissem.size(), 1u);
  EXPECT_DOUBLE_EQ(r.full_dissem[0], 1.5);
}

TEST(FailureAccounting, NonOriginatedMarkCountsForDisseminationOnly) {
  // Every healthy member marks victim 3, but only through gossip: no
  // detection sample, so no dissemination sample either.
  const std::vector<check::TraceEvent> gossip = {
      failed(11.0, 0, 3, false),
      failed(11.0, 1, 3, false),
      failed(11.0, 2, 3, false),
  };
  const RunResult none = account(4, {3}, gossip);
  EXPECT_TRUE(none.first_detect.empty());
  EXPECT_TRUE(none.full_dissem.empty());

  // One later originated declaration supplies the detection; the earlier
  // gossiped marks still date the dissemination.
  std::vector<check::TraceEvent> events = gossip;
  events.push_back(failed(13.0, 0, 3, true));
  const RunResult r = account(4, {3}, events);
  ASSERT_EQ(r.first_detect.size(), 1u);
  EXPECT_DOUBLE_EQ(r.first_detect[0], 3.0);
  ASSERT_EQ(r.full_dissem.size(), 1u);
  EXPECT_DOUBLE_EQ(r.full_dissem[0], 1.0);
}

TEST(FailureAccounting, OutOfRangeIndicesAreIgnored) {
  // Victims 7 and -1 lie outside the 4-node cluster and are dropped.
  const std::vector<check::TraceEvent> events = {
      failed(11.0, -1, 1, true), failed(11.0, 4, 1, true),
      failed(11.0, 0, -1, true), failed(11.0, 0, 9, true),
      failed(11.0, 0, 7, true),
      failed(11.5, 0, 1, true),  // the one in-range FP
  };
  const RunResult r = account(4, {3, 7, -1}, events);
  EXPECT_EQ(r.fp_events, 1);
  EXPECT_EQ(r.fp_healthy_events, 1);
  EXPECT_TRUE(r.first_detect.empty());
  EXPECT_TRUE(r.full_dissem.empty());
}

TEST(FailureAccounting, LatencySamplesFollowTheVictimOrder) {
  // Victim 3 is detected before victim 2, but samples follow {2, 3}; an
  // undetected victim (1) contributes none.
  const RunResult r = account(5, {2, 1, 3}, {failed(11.0, 0, 3, true),
                                             failed(12.0, 0, 2, true)});
  EXPECT_EQ(r.first_detect, (std::vector<double>{2.0, 1.0}));
  // Only node 0 and 4 are healthy; node 4 never marked anyone.
  EXPECT_TRUE(r.full_dissem.empty());
}

TEST(FailureAccounting, OtherEventKindsAreIgnored) {
  check::TraceEvent suspect = failed(11.0, 0, 1, true);
  suspect.kind = check::TraceEventKind::kSuspect;
  check::TraceEvent left = failed(11.0, 0, 3, true);
  left.kind = check::TraceEventKind::kLeft;
  const RunResult r = account(4, {3}, {suspect, left});
  EXPECT_EQ(r.fp_events, 0);
  EXPECT_TRUE(r.first_detect.empty());
}

}  // namespace
}  // namespace lifeguard::harness
