#include "check/events.h"

#include <sstream>

#include "membership/agent.h"

namespace lifeguard::check {

static_assert(static_cast<int>(TraceEventKind::kProbeNack) + 1 ==
              kTraceEventKindCount);

const char* trace_event_kind_name(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kJoin:
      return "join";
    case TraceEventKind::kAlive:
      return "alive";
    case TraceEventKind::kSuspect:
      return "suspect";
    case TraceEventKind::kFailed:
      return "failed";
    case TraceEventKind::kLeft:
      return "left";
    case TraceEventKind::kCrash:
      return "crash";
    case TraceEventKind::kRestart:
      return "restart";
    case TraceEventKind::kBlock:
      return "block";
    case TraceEventKind::kUnblock:
      return "unblock";
    case TraceEventKind::kFaultStart:
      return "fault-start";
    case TraceEventKind::kFaultEnd:
      return "fault-end";
    case TraceEventKind::kDatagram:
      return "datagram";
    case TraceEventKind::kMetricSample:
      return "metric";
    case TraceEventKind::kProbeStart:
      return "probe-start";
    case TraceEventKind::kProbeAck:
      return "probe-ack";
    case TraceEventKind::kProbeIndirect:
      return "probe-indirect";
    case TraceEventKind::kProbeFail:
      return "probe-fail";
    case TraceEventKind::kProbeNack:
      return "probe-nack";
  }
  return "?";
}

std::optional<TraceEventKind> trace_event_kind_from_name(std::string_view n) {
  for (int i = 0; i < kTraceEventKindCount; ++i) {
    const auto k = static_cast<TraceEventKind>(i);
    if (n == trace_event_kind_name(k)) return k;
  }
  return std::nullopt;
}

bool is_member_event(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kJoin:
    case TraceEventKind::kAlive:
    case TraceEventKind::kSuspect:
    case TraceEventKind::kFailed:
    case TraceEventKind::kLeft:
      return true;
    default:
      return false;
  }
}

bool is_probe_span_event(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kProbeStart:
    case TraceEventKind::kProbeAck:
    case TraceEventKind::kProbeIndirect:
    case TraceEventKind::kProbeFail:
    case TraceEventKind::kProbeNack:
      return true;
    default:
      return false;
  }
}

int node_index_of(std::string_view member_name) {
  constexpr std::string_view prefix = "node-";
  if (member_name.size() <= prefix.size() ||
      member_name.substr(0, prefix.size()) != prefix) {
    return -1;
  }
  int value = 0;
  for (char c : member_name.substr(prefix.size())) {
    if (c < '0' || c > '9') return -1;
    if (value > 1000000) return -1;  // absurd index: not a sim node name
    value = value * 10 + (c - '0');
  }
  return value;
}

TraceEvent trace_event_of(const membership::Event& e, int reporter) {
  TraceEvent t;
  t.kind = e.kind;
  t.node = reporter;
  t.peer = node_index_of(e.member);
  t.origin = node_index_of(e.origin);
  t.incarnation = e.incarnation;
  t.originated = e.originated;
  t.value = e.value;
  return t;
}

bool sink_wants(const TraceSink& sink, TraceEventKind k) {
  if (k == TraceEventKind::kDatagram) return sink.wants_datagrams();
  if (is_probe_span_event(k)) return sink.wants_probe_spans();
  return true;
}

void publish(const std::vector<TraceSink*>& sinks, const TraceEvent& e) {
  for (TraceSink* s : sinks) {
    if (sink_wants(*s, e.kind)) s->on_trace_event(e);
  }
}

std::string TraceEvent::describe() const {
  std::ostringstream os;
  os << at.seconds() << "s " << trace_event_kind_name(kind);
  if (is_member_event(kind)) {
    os << " node-" << node << " about node-" << peer << " (inc " << incarnation
       << ", origin node-" << origin << (originated ? ", local" : ", gossip")
       << ")";
  } else if (kind == TraceEventKind::kDatagram) {
    os << " node-" << node << " -> node-" << peer;
  } else if (kind == TraceEventKind::kFaultStart ||
             kind == TraceEventKind::kFaultEnd) {
    os << " entry " << peer;
  } else if (kind == TraceEventKind::kMetricSample) {
    os << " #" << peer;
    if (node >= 0) os << " node-" << node;
    os << " = " << value;
  } else if (is_probe_span_event(kind)) {
    os << " node-" << node << " -> node-" << peer;
    if (kind == TraceEventKind::kProbeAck) os << " (rtt " << value << "us)";
  } else {
    os << " node-" << node;
  }
  return os.str();
}

}  // namespace lifeguard::check
