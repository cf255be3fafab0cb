// Golden-seed bit-parity for the hot-path optimization pass.
//
// These values were first captured BEFORE the EventQueue slot-pool
// rewrite, the Task-based delivery closures, the datagram buffer pool, the
// BroadcastQueue rank-map redesign, the cached active count and the
// per-node link-fault index. Each of those changes claimed to be a pure
// performance transformation (identical Rng draw sequence, identical event
// ordering, identical protocol behavior) and held these numbers unchanged.
// This suite holds every future "optimization" to that claim across
// registry scenarios covering healthy steady state, the SWIM baseline under
// interval anomalies, threshold latency, and the composed
// stress/partition/loss/duplication/reordering timelines.
//
// The numbers were re-captured exactly once, on purpose: the dense-slot
// membership table draws its uniform picks from maintained id sets instead
// of hash-map order, so the same Rng draws select different members.
// Parity with the old order was impossible by construction; instead every
// gate that moved was re-run at 24 repetitions on both engines and the
// confidence intervals of FP, FP-, messages and bytes overlapped
// (docs/benchmarks.md, "The first deliberate re-golden").
//
// If this test breaks, the optimization changed observable behavior — fix
// the optimization, do not re-capture the numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "harness/scenario.h"

namespace lifeguard {
namespace {

struct Golden {
  const char* scenario;
  std::int64_t fp, fp_healthy, msgs, bytes;
  std::size_t first_detect, full_dissem;
};

// Without this gtest prints the parameter as its raw bytes, which include
// the `scenario` pointer and so change with the load address: the listed
// test names (and the ctest names derived from them) would differ from
// build to build.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.scenario; }

// Re-captured with the dense-slot membership table (see header).
constexpr Golden kGoldens[] = {
    {"steady-state", 0, 0, 12312, 1522723, 0, 0},
    {"fig2-total-false-positives", 184, 0, 153982, 22760017, 8, 8},
    {"table5-latency", 0, 0, 37114, 8614602, 4, 4},
    {"partition-under-stress", 8, 0, 7372, 397528, 7, 7},
    {"lossy-flapping", 0, 0, 31973, 1585709, 3, 0},
    {"packet-chaos", 0, 0, 4721, 262771, 0, 0},
};

class GoldenSeedParity : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSeedParity, RegistryScenarioReplaysBitIdentically) {
  const Golden& g = GetParam();
  const harness::Scenario* s =
      harness::ScenarioRegistry::builtin().find(g.scenario);
  ASSERT_NE(s, nullptr) << g.scenario;
  const harness::RunResult r = harness::run(*s);
  EXPECT_EQ(r.fp_events, g.fp) << g.scenario;
  EXPECT_EQ(r.fp_healthy_events, g.fp_healthy) << g.scenario;
  EXPECT_EQ(r.msgs_sent, g.msgs) << g.scenario;
  EXPECT_EQ(r.bytes_sent, g.bytes) << g.scenario;
  EXPECT_EQ(r.first_detect.size(), g.first_detect) << g.scenario;
  EXPECT_EQ(r.full_dissem.size(), g.full_dissem) << g.scenario;
}

INSTANTIATE_TEST_SUITE_P(PreOptimizationGoldens, GoldenSeedParity,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           std::string name = info.param.scenario;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace lifeguard
