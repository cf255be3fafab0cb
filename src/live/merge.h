// Watermark K-way merge of per-process trace streams.
//
// Each live worker emits its check::TraceEvents over its control channel in
// its own timestamp order, but the parent reads the channels whenever poll()
// wakes it — so events from different workers arrive interleaved out of
// order. Sinks (check::Checker, check::TraceRecorder) require the one
// globally time-ordered stream a simulated run publishes.
//
// TraceMerger restores that order with stream watermarks: every stream
// carries a promise "nothing earlier than W will ever arrive here" — raised
// by each event it delivers and by explicit TICK keep-alives (advance()).
// Buffered events are released, globally ordered, up to the *minimum*
// watermark across open streams. A closed stream (worker exited or was
// SIGKILLed mid-stream) stops bounding the merge: whatever it managed to
// emit is still released in order, and the survivors' streams flow on — a
// truncated stream delays nothing and loses nothing that arrived.
//
// Ties on the timestamp break by (stream, arrival sequence), so a given set
// of pushes always yields one deterministic output order.
//
// Single-threaded by design: the parent's poll loop owns it.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "check/events.h"
#include "common/types.h"

namespace lifeguard::live {

class TraceMerger {
 public:
  /// Sinks receive the merged stream under the same opt-in rule as the
  /// simulator's fan-out (check::publish): datagram and probe-span records
  /// reach only the sinks that ask for them.
  explicit TraceMerger(std::vector<check::TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}

  /// Register a stream; returns its id. All streams start at watermark 0.
  int open_stream();

  /// Buffer one event from `stream` and raise its watermark to e.at. An
  /// event timestamped before the stream's own watermark (cross-process
  /// clock skew) is clamped up to it — per-stream order is a merge
  /// invariant, and the skew this hides is bounded by the shared epoch.
  void push(int stream, check::TraceEvent e);

  /// Raise `stream`'s watermark to `t` without an event (TICK keep-alive).
  /// Regressions are ignored.
  void advance(int stream, TimePoint t);

  /// Mark `stream` finished: it stops bounding the global watermark and
  /// accepts no further pushes. Idempotent.
  void close_stream(int stream);

  /// Close every stream and flush all buffered events. Call once at run end.
  void finish();

  /// Events delivered to sinks so far.
  std::size_t emitted() const { return emitted_; }
  /// Events buffered, waiting for lagging watermarks.
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    check::TraceEvent event;
    int stream;
    std::uint64_t seq;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.event.at != b.event.at) return a.event.at > b.event.at;
      if (a.stream != b.stream) return a.stream > b.stream;
      return a.seq > b.seq;
    }
  };

  TimePoint global_watermark() const;
  void flush();
  void emit(const check::TraceEvent& e);

  std::vector<check::TraceSink*> sinks_;
  std::vector<TimePoint> watermarks_;
  std::vector<bool> open_;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t emitted_ = 0;
};

}  // namespace lifeguard::live
