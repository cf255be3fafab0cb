// EventTap — attaches checking-layer sinks to a simulated cluster.
//
// The simulator is the one publisher of a simulated run's TraceEvent stream
// (sim::Simulator::attach_sink); a tap is the RAII handle that attaches any
// number of TraceSinks (a live Checker, a TraceRecorder, both) for its
// lifetime and detaches them on destruction. Attach it before
// Simulator::start_all() so join events are captured.
//
// Sinks are pure observers: they draw no randomness and mutate nothing, so
// attaching one never changes a (scenario, seed) run.
#pragma once

#include <vector>

#include "check/events.h"

namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::check {

class EventTap {
 public:
  /// Attaches each of `sinks` to `sim` (in order) until the tap is
  /// destroyed. Sinks must outlive the tap.
  EventTap(sim::Simulator& sim, std::vector<TraceSink*> sinks);
  ~EventTap();

  EventTap(const EventTap&) = delete;
  EventTap& operator=(const EventTap&) = delete;

 private:
  sim::Simulator& sim_;
  std::vector<TraceSink*> sinks_;
};

}  // namespace lifeguard::check
