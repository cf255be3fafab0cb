// Protocol configuration.
//
// Defaults follow the memberlist values the paper evaluates with
// (BaseProbeInterval = 1 s, BaseProbeTimeout = 500 ms, §IV-A) and memberlist's
// LAN profile for the rest. The three Lifeguard components can be toggled
// independently to reproduce every row of the paper's Table I.
//
// Config is a plain value and the preset factories below are pure (they
// build fresh instances, touching no shared state), so concurrent campaign
// trials can construct and copy configurations freely.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace lifeguard::swim {

struct Config {
  // ---- failure detector (SWIM §III-A) ----
  /// Base period between liveness probes of successive round-robin targets.
  Duration probe_interval = sec(1);
  /// Base timeout for the direct-probe ack before indirect probes start.
  Duration probe_timeout = msec(500);
  /// k: number of relays enlisted for an indirect probe.
  int indirect_checks = 3;
  /// memberlist extension: attempt a reliable-channel direct probe in
  /// parallel with the indirect probes.
  bool reliable_fallback_probe = true;

  // ---- dissemination (SWIM §III-A, memberlist extensions) ----
  /// λ: gossip retransmit multiplier (limit = λ·⌈log10(n+1)⌉).
  int retransmit_mult = 4;
  /// Dedicated gossip tick period (memberlist gossips independently of the
  /// probe schedule).
  Duration gossip_interval = msec(200);
  /// Fan-out of each dedicated gossip tick.
  int gossip_fanout = 3;
  /// Keep gossiping to dead members for this long after their death so they
  /// can learn of it and refute (memberlist GossipToTheDeadTime).
  Duration gossip_to_dead = sec(30);
  /// Maximum UDP payload per packet; piggybacking fills up to this.
  std::size_t max_packet_bytes = 1400;

  // ---- anti-entropy (memberlist) ----
  /// Period of push-pull full state sync over the reliable channel. Zero
  /// disables periodic sync (join still uses push-pull).
  Duration push_pull_interval = sec(30);
  /// Period of reconnect attempts: a push-pull aimed at a random *dead*
  /// member (Serf-style), which is what re-merges fully partitioned
  /// sub-groups once connectivity returns. Zero disables.
  Duration reconnect_interval = sec(10);
  /// A join push-pull that has drawn no sync response within this window is
  /// re-sent to the seeds. Memberlist's Join reports failure and callers
  /// retry; without this a node (re)joining through an unreachable seed
  /// learns quiet members only at the next periodic push-pull — far outside
  /// the paper's convergence windows. Zero disables (fire-and-forget join).
  Duration join_retry_interval = sec(2);

  // ---- suspicion (SWIM Suspicion subprotocol + Lifeguard §IV-B) ----
  /// α: suspicion timeout multiplier. Min = α·log10(n)·probe_interval.
  double suspicion_alpha = 5.0;
  /// β: Max = β·Min. β = 1 gives SWIM's fixed timeout.
  double suspicion_beta = 6.0;
  /// K: independent suspicions that drive the timeout down to Min.
  int suspicion_k = 3;

  // ---- Lifeguard component toggles (paper Table I) ----
  bool lha_probe = true;      ///< Local Health Aware Probe (§IV-A)
  bool lha_suspicion = true;  ///< Local Health Aware Suspicion (§IV-B)
  bool buddy_system = true;   ///< Buddy System (§IV-C)

  /// S: saturation limit of the Local Health Multiplier.
  int lhm_max = 8;
  /// Relays send a nack at this fraction of the origin's probe timeout.
  double nack_fraction = 0.8;
  /// Whether LHA-Probe uses the nack sub-mechanism (ablation knob; the
  /// paper's LHA-Probe always includes it).
  bool nack_enabled = true;

  // ---- housekeeping ----
  /// How long dead members stay in the table (and in push-pull exchanges)
  /// before being reclaimed. Zero keeps them forever.
  Duration dead_reclaim_after = sec(120);

  /// Returns the paper's baseline: plain SWIM with the Suspicion subprotocol
  /// (fixed timeout equivalent to α = 5, β = 1) and no Lifeguard components.
  static Config swim_baseline();

  /// Full Lifeguard with the paper's defaults (α = 5, β = 6, K = 3, S = 8).
  static Config lifeguard();

  /// Named single-component configurations matching Table I rows.
  static Config lha_probe_only();
  static Config lha_suspicion_only();
  static Config buddy_only();

  /// Human-readable name of the Table I row this config corresponds to, or
  /// "Custom" when it matches none. Note: classifies on the component
  /// toggles only — use operator== against the preset to detect hand-tuned
  /// fields.
  std::string table1_name() const;

  /// Inverse of table1_name(): the preset a row name denotes, nullopt for
  /// "Custom" or anything unknown. Single source of the name->preset map
  /// (trace replay and tooling resolve presets through this).
  static std::optional<Config> from_table1_name(std::string_view name);

  /// Empty when every field is in range; otherwise one message per bad
  /// field, naming it. Zero stays legal where a field documents it as
  /// "disabled" (push-pull, reconnect, join retry, dead reclaim). Every
  /// input boundary that builds a Config (scenario files, live control
  /// lines) checks it.
  std::vector<std::string> validate() const;

  /// Field-wise equality (all members are plain values).
  bool operator==(const Config&) const = default;
};

}  // namespace lifeguard::swim
