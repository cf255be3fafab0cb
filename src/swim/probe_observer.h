// ProbeObserver — the probe pipeline's lifecycle hook.
//
// The failure detector's per-period story (direct ping -> ack timeout ->
// indirect ping-req via relays -> nack feedback -> period-end verdict) is
// invisible in the membership event stream until it culminates in a
// suspicion. An observer attached here sees each stage as it happens, which
// is what the telemetry layer's probe-round spans are built from: the
// simulator installs one adapter per node (sim::Simulator::attach_node) and
// publishes the calls as probe-span check::TraceEvents to the sinks that
// ask for them.
//
// Observers are pure: they are called on the node's runtime thread, must not
// mutate the node, and must draw no randomness — attaching one never
// perturbs a (scenario, seed) run. All methods default to no-ops so an
// implementation overrides only the stages it cares about.
#pragma once

#include <string>
#include <string_view>

#include "common/types.h"

namespace lifeguard::swim {

class ProbeObserver {
 public:
  virtual ~ProbeObserver() = default;

  /// A direct probe of `target` began (one per protocol period with a
  /// target available).
  virtual void on_probe_start(const std::string& /*target*/) {}
  /// The probe completed successfully; `rtt` is ping-to-ack round-trip time.
  virtual void on_probe_ack(const std::string& /*target*/, Duration /*rtt*/) {}
  /// The ack timeout expired; the indirect stage (ping-req via relays, plus
  /// the reliable-channel fallback) launched.
  virtual void on_probe_indirect(const std::string& /*target*/) {}
  /// The protocol period ended with no ack: the probe failed and a
  /// suspicion follows.
  virtual void on_probe_fail(const std::string& /*target*/) {}
  /// A relay reported its own timeliness with a nack (Lifeguard §IV-A)
  /// while the probe of `target` was still unresolved.
  virtual void on_probe_nack(const std::string& /*target*/,
                             std::string_view /*relay*/) {}
};

}  // namespace lifeguard::swim
