#include "check/tap.h"

#include <utility>

#include "sim/simulator.h"

namespace lifeguard::check {

EventTap::EventTap(sim::Simulator& sim, std::vector<TraceSink*> sinks)
    : sim_(sim), sinks_(std::move(sinks)) {
  for (TraceSink* s : sinks_) sim_.attach_sink(s);
}

EventTap::~EventTap() {
  for (TraceSink* s : sinks_) sim_.detach_sink(s);
}

}  // namespace lifeguard::check
