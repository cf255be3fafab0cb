// The observation stream the checking layer is built on.
//
// A TraceEvent is one record of a run's single observation stream:
// membership transitions (join/alive/suspect/failed/left, converted from
// swim::MemberEvent by trace_event_of), process control
// (crash/restart/block/unblock), fault-timeline entry spans, telemetry
// samples, and — for sinks that opt in — routed datagrams and probe-round
// spans. In a simulated run sim::Simulator is the one publisher: it records
// each happening once as a TraceEvent and fans it out to its attached sinks;
// in a live run live::TraceMerger does the same for the merged worker
// streams. Node identities are indices (the simulator's "node-N" scheme),
// which keeps records compact, totally comparable, and bit-stable across
// runs: two deterministic runs of the same (scenario, seed) produce
// element-wise equal streams, which is what record–replay verification pins.
//
// TraceSink is the observer seam: check::Checker evaluates invariants over
// the stream live, check::TraceRecorder retains it for JSONL persistence,
// and check::EventTap (tap.h) attaches any number of sinks to a simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace lifeguard::swim {
struct MemberEvent;
}

namespace lifeguard::check {

enum class TraceEventKind : std::uint8_t {
  // -- membership transitions (membership::Observer::on_member_event) --
  kJoin = 0,
  kAlive,
  kSuspect,
  kFailed,
  kLeft,
  // -- process control and fault spans (sim::Simulator::note) --
  kCrash,
  kRestart,
  kBlock,
  kUnblock,
  kFaultStart,
  kFaultEnd,
  kDatagram,
  // -- telemetry (obs:: sampler and probe-round spans) --
  kMetricSample,
  kProbeStart,
  kProbeAck,
  kProbeIndirect,
  kProbeFail,
  kProbeNack,
};

/// Number of TraceEventKind values; the kinds are dense ids from 0.
inline constexpr int kTraceEventKindCount = 18;

const char* trace_event_kind_name(TraceEventKind k);
std::optional<TraceEventKind> trace_event_kind_from_name(std::string_view n);
/// True for the membership-transition kinds (kJoin..kLeft).
bool is_member_event(TraceEventKind k);

struct TraceEvent {
  TimePoint at{};
  TraceEventKind kind = TraceEventKind::kJoin;
  /// Member events: the reporter (where the transition happened). Control
  /// events: the afflicted node. kDatagram: the sender.
  int node = -1;
  /// Member events: the subject member. kDatagram: the receiver.
  /// kFaultStart/kFaultEnd: the fault::Timeline entry index.
  int peer = -1;
  /// Member events: the transition's originator node (-1 when unknown).
  int origin = -1;
  std::uint64_t incarnation = 0;
  /// Member events: true when the reporter itself originated the transition.
  bool originated = false;
  /// kMetricSample: the sampled value (peer holds the obs::Metric id).
  /// kProbeAck: the probe round-trip time in microseconds. 0 otherwise.
  double value = 0.0;

  bool operator==(const TraceEvent&) const = default;

  /// "12.304s suspect node-3 about node-7 (inc 2, origin node-3, local)" —
  /// for violation messages and divergence reports.
  std::string describe() const;
};

/// "node-12" -> 12; -1 for anything else. The simulator names every member
/// this way, so the mapping is total within a simulated cluster.
int node_index_of(std::string_view member_name);

/// One membership transition at node `reporter` as a TraceEvent: the kind
/// and fields copied, the member and origin names turned into node indices
/// (node_index_of). The simulator and the live tier's workers both convert
/// through it; each knows the index of the node it observes.
TraceEvent trace_event_of(const swim::MemberEvent& me, int reporter);

/// True for the probe-round span kinds (kProbeStart..kProbeNack).
bool is_probe_span_event(TraceEventKind k);

/// Observer of the stream. Datagram and probe-span records are opt-in (see
/// sink_wants): kDatagram fires per routed datagram and every probe fires at
/// least two spans — high volume, and noise in a persisted trace.
/// kMetricSample records are delivered unconditionally — they are sparse
/// (one per metric per sampling interval) and every sink tolerates them.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_trace_event(const TraceEvent& e) = 0;
  virtual bool wants_datagrams() const { return false; }
  virtual bool wants_probe_spans() const { return false; }
};

/// The opt-in rule of every fan-out: kDatagram records go only to sinks
/// whose wants_datagrams() is true, probe spans only to sinks whose
/// wants_probe_spans() is true, and every other kind to all sinks.
bool sink_wants(const TraceSink& sink, TraceEventKind k);

/// Deliver `e` to each sink in `sinks` that sink_wants it, in order.
void publish(const std::vector<TraceSink*>& sinks, const TraceEvent& e);

}  // namespace lifeguard::check
