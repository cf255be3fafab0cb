// Delta-debugging shrinker property tests.
//
// The plant: a check::Spec whose suspicion_cap sits far below the
// protocol's real timeout floor, so any suspicion that runs to completion
// violates suspicion-bounds. Random valid fault timelines around one
// guaranteed block entry then reproduce the violation, and shrink() must
// strip the noise down to a seed-stable reproducer of at most two entries —
// identically at jobs=1 and jobs=8 — whose trace replays the violation bit
// for bit.
#include <gtest/gtest.h>

#include "check/replay.h"
#include "check/shrink.h"
#include "check/trace.h"
#include "common/rng.h"
#include "harness/scenario.h"

namespace lifeguard {
namespace {

using harness::Scenario;

/// A scenario whose run must violate suspicion-bounds: a 20 s block of 3
/// members makes healthy peers' suspicions run to completion (~5.4 s at
/// n=12), and the planted 1 ms cap flags every one of them.
Scenario planted_scenario(std::uint64_t seed) {
  Scenario s;
  s.name = "planted-violation";
  s.summary = "seeded random timeline with an unsatisfiable suspicion cap";
  s.cluster_size = 12;
  s.config = swim::Config::lifeguard();
  s.quiesce = sec(10);
  s.run_length = sec(30);
  s.seed = seed;
  s.checks = check::Spec::all();
  s.checks.suspicion_cap = msec(1);  // the planted defect: cap below spec
  s.timeline.add(sec(2), sec(20), fault::Fault::block(),
                 fault::VictimSelector::uniform(3));
  return s;
}

/// Pad the guaranteed reproducer with random-but-valid noise entries the
/// shrinker should strip away.
Scenario random_padded_scenario(std::uint64_t seed) {
  Scenario s = planted_scenario(seed);
  Rng rng(seed * 1000003 + 17);
  const int extras = 2 + static_cast<int>(rng.uniform_range(0, 3));  // 2..4
  for (int i = 0; i < extras; ++i) {
    const Duration at = msec(rng.uniform_range(0, 10000));
    const Duration dur = msec(1000 + rng.uniform_range(0, 20000));
    const int victims = 1 + static_cast<int>(rng.uniform_range(0, 4));
    switch (rng.uniform_range(0, 4)) {
      case 0:
        s.timeline.add(at, dur, fault::Fault::link_loss(0.2, 0.2),
                       fault::VictimSelector::uniform(victims));
        break;
      case 1:
        s.timeline.add(at, dur, fault::Fault::latency(msec(20), msec(10)),
                       fault::VictimSelector::uniform(victims));
        break;
      case 2:
        s.timeline.add(at, dur, fault::Fault::duplicate(0.2),
                       fault::VictimSelector::uniform(victims));
        break;
      default:
        s.timeline.add(at, dur,
                       fault::Fault::interval_block(sec(4), msec(500)),
                       fault::VictimSelector::uniform(victims));
        break;
    }
  }
  EXPECT_TRUE(s.validate().empty());
  return s;
}

TEST(Shrink, PlantedViolationIsDetected) {
  const Scenario s = planted_scenario(7);
  const harness::RunResult r = harness::run(s);
  ASSERT_TRUE(r.checks.checked);
  EXPECT_GT(r.checks.total_violations, 0);
  const auto violated = r.checks.violated_invariants();
  EXPECT_NE(std::find(violated.begin(), violated.end(), "suspicion-bounds"),
            violated.end());
}

TEST(Shrink, ConvergesToAMinimalSeedStableReproducerAtAnyJobsLevel) {
  for (const std::uint64_t seed : {11u, 29u}) {
    const Scenario padded = random_padded_scenario(seed);
    ASSERT_GE(padded.timeline.size(), 3u);

    check::ShrinkOptions seq;
    seq.jobs = 1;
    check::ShrinkOptions par;
    par.jobs = 8;
    const check::ShrinkResult a = check::shrink(padded, seq);
    const check::ShrinkResult b = check::shrink(padded, par);

    ASSERT_TRUE(a.reproduced) << "seed " << seed;
    ASSERT_TRUE(b.reproduced) << "seed " << seed;

    // jobs-invariance: the accepted reduction chain — and therefore the
    // minimal scenario — is identical.
    EXPECT_EQ(a.log, b.log) << "seed " << seed;
    EXPECT_EQ(check::timeline_specs(a.minimal.timeline),
              check::timeline_specs(b.minimal.timeline))
        << "seed " << seed;
    EXPECT_EQ(a.minimal.run_length, b.minimal.run_length);

    // Minimality: the noise entries are gone.
    EXPECT_LE(a.minimal.timeline.size(), 2u)
        << "seed " << seed << ": " << a.minimal.timeline.summary();
    EXPECT_GE(a.minimal.timeline.size(), 1u);

    // The reproducer still fails the same invariant.
    const auto violated = a.minimal_result.checks.violated_invariants();
    EXPECT_NE(
        std::find(violated.begin(), violated.end(), "suspicion-bounds"),
        violated.end());

    // And its trace replays the violation bit for bit.
    check::TraceRecorder recorder(a.minimal);
    const harness::RunResult live = harness::run(a.minimal, {&recorder});
    EXPECT_EQ(live.checks, a.minimal_result.checks);
    const check::ReplayResult replayed =
        check::replay(a.minimal, recorder.trace());
    EXPECT_TRUE(replayed.matches) << replayed.divergence;
    EXPECT_EQ(replayed.result.checks, live.checks);
    EXPECT_GT(replayed.result.checks.total_violations, 0);
  }
}

TEST(Shrink, HealthyScenarioHasNothingToShrink) {
  Scenario s = planted_scenario(3);
  s.checks.suspicion_cap = Duration{};  // no plant: the run is clean
  const check::ShrinkResult r = check::shrink(s);
  EXPECT_FALSE(r.reproduced);
  EXPECT_TRUE(r.target_invariants.empty());
  EXPECT_EQ(r.runs, 1);
}

}  // namespace
}  // namespace lifeguard
