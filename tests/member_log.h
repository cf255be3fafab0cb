// A sink that keeps the membership events of the stream it is attached to
// (check::EventTap or Cluster::attach_sink), for tests that inspect
// transitions.
#pragma once

#include <vector>

#include "check/events.h"

namespace lifeguard {

struct MemberLog final : check::TraceSink {
  void on_trace_event(const check::TraceEvent& e) override {
    if (check::is_member_event(e.kind)) events.push_back(e);
  }
  std::vector<check::TraceEvent> events;
};

}  // namespace lifeguard
