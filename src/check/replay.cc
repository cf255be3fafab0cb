#include "check/replay.h"

#include <algorithm>

namespace lifeguard::check {

ReplayResult replay(const harness::Scenario& s, const Trace& recorded) {
  ReplayResult out;
  // Datagram and probe-span records are off by default; re-record them iff
  // the recording has them, so the two streams are comparable.
  TraceRecorder recorder(s, recorded.has_datagrams(), recorded.probe_spans);
  out.result = harness::run(s, {&recorder});
  out.trace = recorder.take();

  const std::vector<TraceEvent>& a = recorded.events;
  const std::vector<TraceEvent>& b = out.trace.events;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    out.divergence = "event " + std::to_string(i) + ": recorded {" +
                     a[i].describe() + "}, replayed {" + b[i].describe() + "}";
    return out;
  }
  if (a.size() != b.size()) {
    out.divergence = "recorded " + std::to_string(a.size()) +
                     " events but replay produced " + std::to_string(b.size());
    return out;
  }
  out.matches = true;
  return out;
}

}  // namespace lifeguard::check
