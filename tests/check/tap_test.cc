// The simulator's one fan-out (sim::Simulator::attach_sink, check::EventTap):
// datagram and probe-span records reach only the sinks that opt in, every
// other record reaches all of them in one order, destroying a tap detaches
// only its own sinks, and a trace recorded with datagrams replays.
#include "check/tap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "check/invariant.h"
#include "check/replay.h"
#include "check/trace.h"
#include "harness/scenario.h"
#include "sim/simulator.h"
#include "swim/config.h"

namespace lifeguard::check {
namespace {

class CaptureSink : public TraceSink {
 public:
  explicit CaptureSink(bool opt_in = false) : opt_in_(opt_in) {}
  void on_trace_event(const TraceEvent& e) override { events.push_back(e); }
  bool wants_datagrams() const override { return opt_in_; }
  bool wants_probe_spans() const override { return opt_in_; }

  std::int64_t count(TraceEventKind k) const {
    return std::count_if(events.begin(), events.end(),
                         [k](const TraceEvent& e) { return e.kind == k; });
  }

  std::vector<TraceEvent> events;

 private:
  bool opt_in_;
};

bool is_opt_in(TraceEventKind k) {
  return k == TraceEventKind::kDatagram || is_probe_span_event(k);
}

std::vector<TraceEvent> without_opt_in(std::vector<TraceEvent> events) {
  std::erase_if(events, [](const TraceEvent& e) { return is_opt_in(e.kind); });
  return events;
}

sim::SimParams params() {
  sim::SimParams p;
  p.seed = 21;
  return p;
}

/// Join, then block node 3's I/O for 8 s: probes of it go indirect, the
/// relays nack, and the probes fail — every probe-span kind fires.
void run_blocked_node(sim::Simulator& sim) {
  sim.start_all();
  sim.run_for(sec(10));
  sim.block_node(3);
  sim.run_for(sec(8));
  sim.unblock_node(3);
  sim.run_for(sec(10));
}

TEST(EventTap, DatagramsAndSpansReachOnlyTheSinksThatOptIn) {
  sim::Simulator sim(8, swim::Config::lifeguard(), params());
  CaptureSink all(/*opt_in=*/true);
  CaptureSink plain;
  const EventTap tap_all(sim, {&all});
  const EventTap tap_plain(sim, {&plain});
  run_blocked_node(sim);

  EXPECT_EQ(all.count(TraceEventKind::kDatagram), sim.datagrams_routed());
  for (TraceEventKind k :
       {TraceEventKind::kProbeStart, TraceEventKind::kProbeAck,
        TraceEventKind::kProbeIndirect, TraceEventKind::kProbeFail,
        TraceEventKind::kProbeNack}) {
    EXPECT_GT(all.count(k), 0) << trace_event_kind_name(k);
    EXPECT_EQ(plain.count(k), 0) << trace_event_kind_name(k);
  }
  EXPECT_EQ(plain.count(TraceEventKind::kDatagram), 0);
  EXPECT_EQ(plain.count(TraceEventKind::kBlock), 1);
  EXPECT_EQ(plain.count(TraceEventKind::kUnblock), 1);
  EXPECT_GT(plain.count(TraceEventKind::kSuspect), 0);

  // Everything else is one stream, element for element.
  EXPECT_EQ(without_opt_in(all.events), plain.events);
}

TEST(EventTap, DestroyingOneTapLeavesTheOtherIntact) {
  // Reference: the same run with only the surviving sink attached.
  CaptureSink reference(/*opt_in=*/true);
  {
    sim::Simulator sim(8, swim::Config::lifeguard(), params());
    const EventTap tap(sim, {&reference});
    run_blocked_node(sim);
  }

  sim::Simulator sim(8, swim::Config::lifeguard(), params());
  CaptureSink survivor(/*opt_in=*/true);
  CaptureSink detached(/*opt_in=*/true);
  const EventTap keep(sim, {&survivor});
  std::optional<EventTap> drop;
  drop.emplace(sim, std::vector<TraceSink*>{&detached});
  sim.start_all();
  sim.run_for(sec(10));
  drop.reset();
  const std::vector<TraceEvent> before = detached.events;
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before, survivor.events);

  sim.block_node(3);
  sim.run_for(sec(8));
  sim.unblock_node(3);
  sim.run_for(sec(10));
  EXPECT_EQ(detached.events, before);
  EXPECT_GT(survivor.events.size(), before.size());
  EXPECT_EQ(survivor.events, reference.events);
}

TEST(EventTap, CheckerSeesTheLatestDisturbance) {
  sim::Simulator sim(8, swim::Config::lifeguard(), params());
  Checker checker(Spec::all(), swim::Config::lifeguard(), 8);
  const EventTap tap(sim, {&checker});
  sim.start_all();
  sim.run_for(sec(10));
  EXPECT_EQ(checker.last_disturbance(), TimePoint{});
  sim.block_node(3);
  sim.run_for(sec(8));
  const TimePoint unblocked = sim.now();
  sim.unblock_node(3);
  sim.run_for(sec(10));
  EXPECT_EQ(checker.last_disturbance(), unblocked);
}

TEST(GoldenTrace, RecordingWithDatagramsReplaysBitForBit) {
  harness::Scenario s =
      *harness::ScenarioRegistry::builtin().find("partition-split-heal");
  s.cluster_size = 10;
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(4);
  s.run_length = sec(40);
  s.checks = Spec::all();

  TraceRecorder recorder(s, /*include_datagrams=*/true);
  const harness::RunResult live = harness::run(s, {&recorder});
  ASSERT_TRUE(live.checks.passed());
  ASSERT_TRUE(recorder.trace().has_datagrams());

  const ReplayResult r = replay(s, recorder.trace());
  EXPECT_TRUE(r.matches) << r.divergence;
  EXPECT_TRUE(r.trace.has_datagrams());
  EXPECT_EQ(r.trace.events.size(), recorder.trace().events.size());
}

}  // namespace
}  // namespace lifeguard::check
