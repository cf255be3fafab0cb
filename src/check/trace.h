// Trace record–replay: persist the merged event stream of one run as a
// compact JSONL artifact and re-execute it deterministically.
//
// A trace is a header line (the recorded Scenario in the scenario-file keys,
// written on one line: seed, cluster shape, the config as a Table I preset
// plus suspicion tuning plus any config_overrides, network model, the fault
// timeline in the --fault grammar, and the check Spec) followed by one line
// per TraceEvent and an event-count footer (truncation detection). The
// header is read by harness::ScenarioFile::read, the scenario files' own
// reader. Node identities are indices, so lines are tiny:
//
//   {"type":"trace","version":1,"scenario":"packet-chaos","seed":"1",...}
//   {"t":15204983,"k":"suspect","n":3,"m":7,"o":3,"inc":2,"og":1}
//   ...
//   {"type":"end","events":3121}
//
// Because the engine is deterministic, a trace doubles as a reproducer: the
// header alone replays the run (check/replay.h), and the recorded stream
// pins what the replay must produce, element for element.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "check/events.h"
#include "fault/fault.h"
#include "harness/scenario.h"

namespace lifeguard::check {

struct Trace {
  /// The recorded run. A saved trace keeps all of it but `summary` and
  /// `paper_ref`, so a loaded trace replays the run it was recorded from.
  harness::Scenario scenario;
  /// True when the recording captured probe-round span events.
  bool probe_spans = false;
  std::vector<TraceEvent> events;

  bool has_datagrams() const;
  bool has_probe_spans() const;
};

/// Retains the merged stream of one engine run (pass to harness::run's
/// `sinks`), with the Scenario it was given at construction.
class TraceRecorder : public TraceSink {
 public:
  explicit TraceRecorder(const harness::Scenario& s,
                         bool include_datagrams = false,
                         bool include_probe_spans = false);

  void on_trace_event(const TraceEvent& e) override;
  bool wants_datagrams() const override { return include_datagrams_; }
  bool wants_probe_spans() const override { return include_probe_spans_; }

  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }

 private:
  bool include_datagrams_;
  bool include_probe_spans_;
  Trace trace_;
};

// ---- event-line codec ----
/// One TraceEvent in the compact flat-JSON form trace files use for event
/// records ({"t":..,"k":"suspect","n":3,...}; no trailing newline). This is
/// also the wire form the live tier's control channel streams (one `EV `
/// line per event; see src/live/control.h) — one codec, so a live run's
/// recorded trace is indistinguishable from a simulated one.
std::string event_line(const TraceEvent& e);
/// Inverse of event_line; nullopt + `error` on malformed input.
std::optional<TraceEvent> event_from_line(std::string_view line,
                                          std::string& error);

/// Render one timeline entry in the `--fault` grammar such that
/// fault::parse_timeline_entry() reconstructs it exactly.
std::string entry_spec(const fault::TimelineEntry& e);
std::vector<std::string> timeline_specs(const fault::Timeline& tl);
/// Inverse of timeline_specs; nullopt + `error` on a malformed spec.
std::optional<fault::Timeline> timeline_from_specs(
    const std::vector<std::string>& specs, std::string& error);

// ---- persistence ----
void save_trace(const Trace& t, std::ostream& out);
/// False + `error` when the file cannot be written.
bool save_trace_file(const Trace& t, const std::string& path,
                     std::string& error);
/// nullopt + `error` (naming the offending line) on malformed input or a
/// truncated stream.
std::optional<Trace> load_trace(std::istream& in, std::string& error);
std::optional<Trace> load_trace_file(const std::string& path,
                                     std::string& error);

}  // namespace lifeguard::check
