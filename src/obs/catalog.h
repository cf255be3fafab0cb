// The metric catalog — the stable vocabulary of the telemetry layer.
//
// Every time-series point the snapshot sampler (obs/sampler.h) emits, for
// the simulator's cluster or for one live worker, names one Metric from
// this enum. Ids are stable wire/artifact identifiers: a kMetricSample
// TraceEvent carries the id in its `peer` field and the sampled value in
// `value`, so traces, campaign band artifacts and the JSONL/Prometheus
// exports all agree on what, say, metric 3 means.
// Append-only: never renumber (recorded traces would silently change
// meaning); add new metrics at the tail.
//
// docs/observability.md is the prose version of this catalog — keep the two
// in sync.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace lifeguard::obs {

enum class Metric : std::uint8_t {
  kMembersActive = 0,    ///< mean active (alive|suspect) members per node view
  kMembersSuspect = 1,   ///< mean suspected members per node view
  kMembersDead = 2,      ///< mean dead members per node view
  kLhmMean = 3,          ///< mean Local Health Multiplier score (paper §IV-A)
  kLhmMax = 4,           ///< worst LHM score in the cluster
  kProbeRttMeanUs = 5,   ///< mean probe round-trip time this interval (us)
  kProbeNackRate = 6,    ///< nacks received per second (cluster-wide)
  kProbeFailRate = 7,    ///< failed probes per second (cluster-wide)
  kNetMsgsRate = 8,      ///< messages sent per second (cluster-wide)
  kNetMsgsTotal = 9,     ///< cumulative messages sent
  kNetBytesTotal = 10,   ///< cumulative bytes sent
  kGossipPendingMean = 11,  ///< mean gossip-queue depth (piggyback backlog)
  kGossipPendingMax = 12,   ///< deepest gossip queue in the cluster
  kSimQueueDepth = 13,      ///< simulator event-queue depth (sim only)
  kSimEventsRate = 14,      ///< simulator events executed per second (sim only)
  kGossipTransmitsRate = 15,  ///< piggyback frames sent per second (saturation)
  // Backend-generic detection metrics (membership backends with explicit
  // heartbeats — central today). The sampler emits ids 16..18 only for
  // non-swim backends, keeping swim series byte-identical to pre-backend
  // recordings.
  kHeartbeatSentTotal = 16,    ///< cumulative heartbeats sent (cluster-wide)
  kHeartbeatMissedTotal = 17,  ///< cumulative heartbeat deadline misses
  kCoordinatorRttMeanUs = 18,  ///< mean heartbeat->ack RTT this interval (us)
};

inline constexpr int kMetricCount = 19;

/// Dotted-path name ("probe.rtt.mean_us"); "?" for an out-of-range value.
const char* metric_name(Metric m);
/// Inverse of the id an event carries in `peer`; nullopt when out of range.
std::optional<Metric> metric_from_id(int id);
std::optional<Metric> metric_from_name(std::string_view name);
/// All metrics in id order (schema validation, exporters).
std::vector<Metric> all_metrics();
/// Prometheus exposition name: "lifeguard_" prefix, dots to underscores.
std::string prometheus_metric_name(Metric m);

/// One time-series point. `node` is -1 for cluster aggregates (the sim
/// sampler's output) and the member index for per-node points (live
/// workers sample themselves).
struct Sample {
  TimePoint at{};
  Metric metric = Metric::kMembersActive;
  int node = -1;
  double value = 0.0;

  bool operator==(const Sample&) const = default;
};

using Series = std::vector<Sample>;

}  // namespace lifeguard::obs
