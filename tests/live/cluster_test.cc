// End-to-end live tier: real forked worker processes exchanging real UDP on
// loopback. These tests spawn whole clusters, so they are RUN_SERIAL and
// labeled `live` in CMake; each one skips cleanly when the live_node worker
// binary is not next to the test executable.
//
// The parity smoke runs the same cataloged scenario on both backends and
// holds the results to the tolerance band docs/live-tier.md documents:
// both backends must pass the invariant suite, detect the same victims, and
// agree on detection latency within ±5 s and FP counts within ±2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "check/events.h"
#include "check/spec.h"
#include "harness/scenario.h"
#include "live/runner.h"

namespace lifeguard::live {
namespace {

std::string describe_all(const check::RunReport& report) {
  std::string out;
  for (const check::Violation& v : report.violations) {
    out += "\n  " + v.describe();
  }
  return out;
}

const harness::Scenario& cataloged(const char* name) {
  const harness::Scenario* s = harness::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

#define REQUIRE_WORKER_BINARY()                                         \
  do {                                                                  \
    if (find_live_node_binary().empty()) {                              \
      GTEST_SKIP() << "live_node worker binary not found — build it "   \
                      "next to this test";                              \
    }                                                                   \
  } while (0)

TEST(LiveCluster, HealthyClusterConvergesAndPassesInvariants) {
  REQUIRE_WORKER_BINARY();
  harness::Scenario s = cataloged("live-healthy");
  const harness::RunResult r = live::run(s);

  EXPECT_TRUE(r.checks.checked);
  EXPECT_TRUE(r.checks.passed())
      << "violations: " << r.checks.total_violations << describe_all(r.checks);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_EQ(r.fp_events, 0);  // nobody should be declared failed
  EXPECT_GT(r.msgs_sent, 0);
  EXPECT_GT(r.bytes_sent, 0);
}

TEST(LiveCluster, RunHonorsTheWallClockCeiling) {
  REQUIRE_WORKER_BINARY();
  harness::Scenario s = cataloged("live-healthy");
  RunOptions opts;
  opts.timeout = msec(50);  // far below quiesce + run — must trip
  EXPECT_THROW(live::run(s, opts), TimeoutError);
}

/// Captures the merged stream to measure detection latency from the crash
/// itself. Anchoring on the kCrash record factors out the one draw the
/// backends intentionally do not share — the random churn phase.
class DetectLatencySink : public check::TraceSink {
 public:
  explicit DetectLatencySink(int victim) : victim_(victim) {}
  void on_trace_event(const check::TraceEvent& e) override {
    if (e.kind == check::TraceEventKind::kCrash && e.node == victim_ &&
        crash_.us < 0) {
      crash_ = e.at;
    }
    if (e.kind == check::TraceEventKind::kFailed && e.peer == victim_ &&
        e.originated && crash_.us >= 0 && latency_ < 0) {
      latency_ = (e.at - crash_).seconds();
    }
  }
  /// Seconds from the victim's first crash to the first originated failed
  /// declaration about it; negative when either never happened.
  double latency() const { return latency_; }

 private:
  int victim_;
  TimePoint crash_{-1};
  double latency_ = -1.0;
};

TEST(LiveCluster, ParitySmokeCrashRestartMatchesTheSimulator) {
  REQUIRE_WORKER_BINARY();
  harness::Scenario s = cataloged("live-crash-restart");
  ASSERT_EQ(s.timeline.entries().size(), 1u);
  const int victim = 3;  // explicit in the catalog entry

  DetectLatencySink sim_detect(victim);
  DetectLatencySink live_detect(victim);
  const harness::RunResult sim = harness::run(s, {&sim_detect});
  const harness::RunResult live = live::run(s, {}, {&live_detect});

  // Both backends run the invariant suite over their merged streams and
  // both must hold.
  ASSERT_TRUE(sim.checks.checked);
  ASSERT_TRUE(live.checks.checked);
  EXPECT_TRUE(sim.checks.passed());
  EXPECT_TRUE(live.checks.passed())
      << "live violations: " << live.checks.total_violations
      << describe_all(live.checks);

  // The victim set is explicit in the catalog entry, so it is identical —
  // not merely equivalent — across backends.
  EXPECT_EQ(sim.victims, live.victims);
  EXPECT_EQ(sim.victims, std::vector<int>{victim});

  // Both backends crash the victim and detect it; crash-to-detection
  // latency agrees within the documented ±5 s band (real schedulers
  // jitter; the protocol's detection time does not move by seconds).
  ASSERT_GE(sim_detect.latency(), 0.0) << "sim never detected the crash";
  ASSERT_GE(live_detect.latency(), 0.0) << "live never detected the crash";
  EXPECT_LE(std::abs(sim_detect.latency() - live_detect.latency()), 5.0)
      << "sim=" << sim_detect.latency() << "s live=" << live_detect.latency()
      << "s";

  // FP accounting within the documented ±2 band — healthy members of an
  // 8-node cluster should produce essentially none on either backend.
  EXPECT_LE(std::llabs(sim.fp_events - live.fp_events), 2);
  EXPECT_LE(std::llabs(sim.fp_healthy_events - live.fp_healthy_events), 2);
}

}  // namespace
}  // namespace lifeguard::live
