// Snapshot sampler — the telemetry layer's one time-series source — and
// SeriesCollector, the sink that turns samples back into a Series.
//
// Every `interval` the sampler reads the agents it was given through
// membership::Agent and emits one kMetricSample TraceEvent per catalog
// Metric, in catalog order. It samples either of two things:
//   * the simulator's cluster: aggregates over every node (node = -1), plus
//     the event-queue metrics (ids 13-14) and, for non-swim backends, the
//     detection metrics (16-18), published on the simulator's observation
//     stream, so every attached sink sees them: a TraceRecorder persists the
//     series inside the trace (and replay reproduces it bit-identically),
//     and a SeriesCollector builds RunResult::series;
//   * one agent on its own runtime (a live worker's node): ids 0-12 and 15,
//     node = the member's index, handed to a callback on the runtime's
//     thread. The parent's merge carries them like any other worker record.
// The same collector folds the simulator's samples, a live run's merged
// worker samples and a recorded trace's samples, so all three series come
// from one place.
//
// Rates and the RTT window mean are per interval: deltas from the previous
// tick, or from the readings start() took for the first one, clamped at
// zero (restart_node hands a slot a zeroed registry).
//
// Determinism: ticks are plain timer tasks that draw no randomness and
// mutate nothing, so protocol Rng draws and RunResult metrics are identical
// with sampling on or off. The first tick fires at `interval` after start()
// (not at time zero), which makes a replayed run — whose sampler starts the
// same way — emit element-wise equal samples.
#pragma once

#include <functional>
#include <utility>

#include "check/events.h"
#include "common/types.h"
#include "obs/catalog.h"

namespace lifeguard {
class Runtime;
}
namespace lifeguard::membership {
class Agent;
}
namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::obs {

class Sampler {
 public:
  /// Receives each sample record.
  using Out = std::function<void(const check::TraceEvent&)>;

  /// Samples the simulator's cluster and publishes through Simulator::note.
  /// Must outlive the simulator's event-loop execution.
  Sampler(sim::Simulator& sim, Duration interval);
  /// Samples `agent` as node `node`, ticking on `rt`, the runtime it runs
  /// on; each record goes to `out`. Must outlive `rt`'s loop.
  Sampler(const membership::Agent& agent, int node, Runtime& rt,
          Duration interval, Out out);

  /// Take the readings the first tick's rates start from, and schedule it
  /// at now + interval; each tick schedules the next, so sampling runs for
  /// the rest of the run.
  void start();

 private:
  /// One tick's cumulative readings, summed over the agents: emitted as
  /// they are, or as deltas from the previous tick's.
  struct Totals {
    double msgs = 0;
    double bytes = 0;
    double nacks = 0;
    double fails = 0;
    double transmits = 0;
    double rtt_count = 0;
    double rtt_sum = 0;
    double events = 0;  ///< simulator events executed (cluster only)
    // Detection tail only.
    double hb_sent = 0;
    double hb_missed = 0;
    double hb_rtt_count = 0;
    double hb_rtt_sum = 0;
  };

  /// Call `fn` with each sampled agent, in index order.
  template <class Fn>
  void for_each_agent(Fn&& fn) const;
  Totals read() const;
  void tick();
  void emit(TimePoint at, Metric m, double value);
  TimePoint now() const;
  void schedule_tick();

  sim::Simulator* sim_ = nullptr;             ///< the cluster, or
  const membership::Agent* agent_ = nullptr;  ///< one agent,
  Runtime* rt_ = nullptr;                     ///< on its runtime
  int node_ = -1;
  Out out_;
  Duration interval_{};
  /// Emit ids 16-18: a simulated cluster running a non-swim backend. Swim
  /// never populates the detect.* instruments, and skipping the emits keeps
  /// swim series byte-identical to recordings made before the membership
  /// seam existed.
  bool detection_tail_ = false;

  Totals prev_;
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
