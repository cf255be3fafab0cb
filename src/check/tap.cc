#include "check/tap.h"

#include <utility>

#include "sim/simulator.h"

namespace lifeguard::check {

namespace {

TraceEventKind sim_event_kind(sim::SimEventKind k) {
  switch (k) {
    case sim::SimEventKind::kCrash:
      return TraceEventKind::kCrash;
    case sim::SimEventKind::kRestart:
      return TraceEventKind::kRestart;
    case sim::SimEventKind::kBlock:
      return TraceEventKind::kBlock;
    case sim::SimEventKind::kUnblock:
      return TraceEventKind::kUnblock;
    case sim::SimEventKind::kFaultStart:
      return TraceEventKind::kFaultStart;
    case sim::SimEventKind::kFaultEnd:
      return TraceEventKind::kFaultEnd;
    case sim::SimEventKind::kDatagram:
      return TraceEventKind::kDatagram;
    case sim::SimEventKind::kProbeStart:
      return TraceEventKind::kProbeStart;
    case sim::SimEventKind::kProbeAck:
      return TraceEventKind::kProbeAck;
    case sim::SimEventKind::kProbeIndirect:
      return TraceEventKind::kProbeIndirect;
    case sim::SimEventKind::kProbeFail:
      return TraceEventKind::kProbeFail;
    case sim::SimEventKind::kProbeNack:
      return TraceEventKind::kProbeNack;
  }
  return TraceEventKind::kDatagram;
}

bool is_probe_span(sim::SimEventKind k) {
  switch (k) {
    case sim::SimEventKind::kProbeStart:
    case sim::SimEventKind::kProbeAck:
    case sim::SimEventKind::kProbeIndirect:
    case sim::SimEventKind::kProbeFail:
    case sim::SimEventKind::kProbeNack:
      return true;
    default:
      return false;
  }
}

}  // namespace

TraceEvent trace_event_of(const swim::MemberEvent& me) {
  TraceEvent e;
  e.at = me.at;
  switch (me.type) {
    case swim::EventType::kJoin:
      e.kind = TraceEventKind::kJoin;
      break;
    case swim::EventType::kAlive:
      e.kind = TraceEventKind::kAlive;
      break;
    case swim::EventType::kSuspect:
      e.kind = TraceEventKind::kSuspect;
      break;
    case swim::EventType::kFailed:
      e.kind = TraceEventKind::kFailed;
      break;
    case swim::EventType::kLeft:
      e.kind = TraceEventKind::kLeft;
      break;
  }
  e.node = node_index_of(me.reporter);
  e.peer = node_index_of(me.member);
  e.origin = node_index_of(me.origin);
  e.incarnation = me.incarnation;
  e.originated = me.originated;
  return e;
}

EventTap::EventTap(sim::Simulator& sim, std::vector<TraceSink*> sinks)
    : sim_(sim), sinks_(std::move(sinks)) {
  for (const TraceSink* s : sinks_) {
    any_wants_datagrams_ = any_wants_datagrams_ || s->wants_datagrams();
    any_wants_probe_spans_ = any_wants_probe_spans_ || s->wants_probe_spans();
  }
  bus_sub_ = sim.event_bus().subscribe(
      [this](const swim::MemberEvent& me) { forward(trace_event_of(me)); });
  sim_tap_token_ = sim.add_sim_tap([this](const sim::SimEvent& se) {
    if (se.kind == sim::SimEventKind::kDatagram && !any_wants_datagrams_) {
      return;
    }
    if (is_probe_span(se.kind) && !any_wants_probe_spans_) return;
    TraceEvent e;
    e.at = se.at;
    e.kind = sim_event_kind(se.kind);
    e.node = se.node;
    e.peer = se.peer;
    e.value = se.value;
    forward(e);
  });
}

EventTap::~EventTap() { sim_.remove_sim_tap(sim_tap_token_); }

void EventTap::forward(const TraceEvent& e) {
  const bool datagram = e.kind == TraceEventKind::kDatagram;
  const bool span = is_probe_span_event(e.kind);
  for (TraceSink* s : sinks_) {
    if (datagram && !s->wants_datagrams()) continue;
    if (span && !s->wants_probe_spans()) continue;
    s->on_trace_event(e);
  }
}

}  // namespace lifeguard::check
