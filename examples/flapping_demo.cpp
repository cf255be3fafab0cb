// The scenario that motivated Lifeguard (paper §II): overloaded members
// intermittently stall, and under plain SWIM healthy members get falsely
// declared dead — "flapping". Run the cataloged flapping scenario under SWIM
// and under Lifeguard and compare.
//
//   ./examples/flapping_demo
#include <algorithm>
#include <cstdio>

#include "harness/scenario.h"

using namespace lifeguard;
using namespace lifeguard::harness;

namespace {

struct Outcome {
  long long false_positives = 0;  // dead declarations about healthy members
  long long refutations = 0;      // "I am not dead" rebuttals (flap halves)
  long long messages = 0;
};

/// The demo workload: 4 of 64 members stall in lock-step for 16 s with 5 ms
/// of air between stalls, for two minutes (e.g. video transcoders behind one
/// oversubscribed CPU, §II). 16 s sits above SWIM's fixed suspicion timeout
/// (5·log10(64) ≈ 9 s) but below Lifeguard's starting timeout (6×that) —
/// exactly the regime the paper targets.
Scenario demo_scenario() {
  Scenario s;
  s.name = "flapping-demo";
  s.cluster_size = 64;
  s.timeline.add(sec(0), sec(120),
                 fault::Fault::interval_block(sec(16), msec(5)),
                 fault::VictimSelector::uniform(4));
  s.run_length = sec(120);
  s.seed = 77;
  return s;
}

Outcome run_with(const swim::Config& cfg) {
  // Identical workload for both configurations: same scenario, same seed —
  // only the protocol configuration differs.
  Scenario s = demo_scenario();
  s.config = cfg;
  std::printf("--- %s ---\n", cfg.table1_name().c_str());

  const RunResult r = run(s);
  Outcome out;
  out.false_positives = r.fp_events;
  out.refutations = r.metrics.counter_value("swim.refutations");
  out.messages = r.msgs_sent;
  std::printf("  false positives about healthy members : %lld\n",
              out.false_positives);
  std::printf("  refutations (flap halves)              : %lld\n",
              out.refutations);
  std::printf("  compound messages sent                 : %lld\n\n",
              out.messages);
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Identical cluster, identical anomaly schedule (seed 77):\n"
      "4 of 64 members stall for 16 s at a time with 5 ms of air between\n"
      "stalls, for two minutes.\n\n");
  const Outcome swim = run_with(swim::Config::swim_baseline());
  const Outcome lifeguard = run_with(swim::Config::lifeguard());

  if (lifeguard.false_positives < swim.false_positives) {
    const double factor =
        static_cast<double>(swim.false_positives) /
        std::max(1.0, static_cast<double>(lifeguard.false_positives));
    std::printf("Lifeguard cut false positives by %.0fx (%lld -> %lld).\n",
                factor, swim.false_positives, lifeguard.false_positives);
  } else {
    std::printf("No false-positive reduction in this run — try more seeds.\n");
  }
  return 0;
}
