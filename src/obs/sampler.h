// Snapshot sampler — the telemetry layer's time-series source for the sim
// backend — and SeriesCollector, the sink that turns samples back into a
// Series.
//
// Every `interval` of virtual time the sampler walks the cluster and
// publishes one kMetricSample TraceEvent per catalog Metric (cluster
// aggregates: node = -1) on the simulator's observation stream, so every
// attached sink sees it: a TraceRecorder persists the series inside the
// trace (and replay reproduces it bit-identically), and a SeriesCollector
// builds RunResult::series. The same collector folds a live run's merged
// worker samples and a recorded trace's samples, so all three series come
// from one place.
//
// Determinism: ticks are plain event-queue tasks that draw no randomness and
// mutate nothing, so protocol Rng draws and RunResult metrics are identical
// with sampling on or off. The first tick fires at `interval` after start()
// (not at time zero), which makes a replayed run — whose sampler starts the
// same way — emit element-wise equal samples.
#pragma once

#include <utility>

#include "check/events.h"
#include "common/types.h"
#include "obs/catalog.h"

namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::obs {

class Sampler {
 public:
  /// Samples publish through `sim` (Simulator::note). Must outlive the
  /// simulator's event-loop execution.
  Sampler(sim::Simulator& sim, Duration interval);

  /// Schedule the first snapshot at now + interval; each snapshot
  /// reschedules the next, so sampling runs for the rest of the run.
  void start();

 private:
  void tick();
  void emit(Metric m, double value);

  sim::Simulator& sim_;
  Duration interval_{};

  // Previous cumulative values for per-interval rates. Deltas are clamped at
  // zero: restart_node resets a fresh incarnation's counters, which must not
  // read as a negative rate.
  double prev_msgs_ = 0;
  double prev_nacks_ = 0;
  double prev_fails_ = 0;
  double prev_transmits_ = 0;
  double prev_rtt_count_ = 0;
  double prev_rtt_sum_ = 0;
  double prev_events_ = 0;
  double prev_hb_rtt_count_ = 0;
  double prev_hb_rtt_sum_ = 0;
  TimePoint prev_at_{};
};

/// Collects kMetricSample records off a stream into a Series, one Sample
/// per record in stream order (node -1 for the sim sampler's cluster
/// aggregates, the member index for a live worker's per-node samples).
class SeriesCollector final : public check::TraceSink {
 public:
  void on_trace_event(const check::TraceEvent& e) override;
  Series take() { return std::move(series_); }

 private:
  Series series_;
};

}  // namespace lifeguard::obs
