// EventTap — wires a simulated cluster to the checking layer.
//
// One tap merges the simulator's SimEvent stream and the cluster-wide
// membership EventBus into TraceEvents and fans them out to any number of
// TraceSinks (a live Checker, a TraceRecorder, both). Attach it before
// Simulator::start_all() so join events are captured; detach (destruction)
// is RAII on both streams.
//
// The tap is a pure observer: it draws no randomness and mutates nothing,
// so attaching one never changes a (scenario, seed) run.
#pragma once

#include <vector>

#include "check/events.h"
#include "swim/events.h"

namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::check {

/// One membership transition as a TraceEvent: the kind and fields copied,
/// member names turned into node indices (node_index_of). The simulator's
/// tap and the live tier's workers both convert through it.
TraceEvent trace_event_of(const swim::MemberEvent& me);

class EventTap {
 public:
  /// Subscribes to `sim`'s event bus and sim-event tap; every event is
  /// converted and forwarded to each sink (kDatagram only to sinks that
  /// want it). Sinks must outlive the tap.
  EventTap(sim::Simulator& sim, std::vector<TraceSink*> sinks);
  ~EventTap();

  EventTap(const EventTap&) = delete;
  EventTap& operator=(const EventTap&) = delete;

 private:
  void forward(const TraceEvent& e);

  sim::Simulator& sim_;
  std::vector<TraceSink*> sinks_;
  bool any_wants_datagrams_ = false;
  bool any_wants_probe_spans_ = false;
  swim::EventBus::Subscription bus_sub_;
  int sim_tap_token_ = 0;
};

}  // namespace lifeguard::check
