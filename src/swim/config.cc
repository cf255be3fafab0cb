#include "swim/config.h"

#include "proto/wire.h"

namespace lifeguard::swim {

Config Config::swim_baseline() {
  Config c;
  c.lha_probe = false;
  c.lha_suspicion = false;
  c.buddy_system = false;
  c.suspicion_alpha = 5.0;
  c.suspicion_beta = 1.0;  // fixed timeout
  return c;
}

Config Config::lifeguard() { return Config{}; }

Config Config::lha_probe_only() {
  Config c = swim_baseline();
  c.lha_probe = true;
  return c;
}

Config Config::lha_suspicion_only() {
  Config c = swim_baseline();
  c.lha_suspicion = true;
  c.suspicion_beta = 6.0;
  return c;
}

Config Config::buddy_only() {
  Config c = swim_baseline();
  c.buddy_system = true;
  return c;
}

std::string Config::table1_name() const {
  if (!lha_probe && !lha_suspicion && !buddy_system) return "SWIM";
  if (lha_probe && !lha_suspicion && !buddy_system) return "LHA-Probe";
  if (!lha_probe && lha_suspicion && !buddy_system) return "LHA-Suspicion";
  if (!lha_probe && !lha_suspicion && buddy_system) return "Buddy System";
  if (lha_probe && lha_suspicion && buddy_system) return "Lifeguard";
  return "Custom";
}

std::optional<Config> Config::from_table1_name(std::string_view name) {
  if (name == "SWIM") return swim_baseline();
  if (name == "LHA-Probe") return lha_probe_only();
  if (name == "LHA-Suspicion") return lha_suspicion_only();
  if (name == "Buddy System") return buddy_only();
  if (name == "Lifeguard") return lifeguard();
  return std::nullopt;
}

std::vector<std::string> Config::validate() const {
  std::vector<std::string> errors;
  const auto positive = [&errors](const char* field, Duration d,
                                  const char* why) {
    if (d.us <= 0) {
      errors.push_back(std::string(field) + " (" + std::to_string(d.us) +
                       " us) must be > 0 — " + why);
    }
  };
  const auto non_negative = [&errors](const char* field, Duration d,
                                      const char* why) {
    if (d.is_negative()) {
      errors.push_back(std::string(field) + " (" + std::to_string(d.us) +
                       " us) must be >= 0 — " + why);
    }
  };
  const auto at_least = [&errors](const char* field, std::int64_t v,
                                  std::int64_t lo) {
    if (v < lo) {
      errors.push_back(std::string(field) + " (" + std::to_string(v) +
                       ") must be >= " + std::to_string(lo));
    }
  };
  positive("probe_interval", probe_interval,
           "every probe would fire at the same virtual instant");
  positive("probe_timeout", probe_timeout,
           "a probe needs time for its ack to arrive");
  positive("gossip_interval", gossip_interval,
           "every gossip round would fire at the same virtual instant");
  non_negative("gossip_to_dead", gossip_to_dead,
               "zero stops gossip to dead members at once");
  non_negative("push_pull_interval", push_pull_interval,
               "zero disables periodic sync");
  non_negative("reconnect_interval", reconnect_interval,
               "zero disables reconnects");
  non_negative("join_retry_interval", join_retry_interval,
               "zero disables join retries");
  non_negative("dead_reclaim_after", dead_reclaim_after,
               "zero keeps dead members forever");
  at_least("indirect_checks", indirect_checks, 0);
  at_least("retransmit_mult", retransmit_mult, 1);
  at_least("gossip_fanout", gossip_fanout, 0);
  at_least("suspicion_k", suspicion_k, 0);
  at_least("lhm_max", lhm_max, 0);
  if (max_packet_bytes < proto::kCompoundHeaderBytes) {
    errors.push_back("max_packet_bytes (" + std::to_string(max_packet_bytes) +
                     ") must be >= " +
                     std::to_string(proto::kCompoundHeaderBytes) +
                     " — the compound header alone takes that much");
  }
  // Negated comparisons so that NaN fails too.
  if (!(suspicion_alpha > 0.0)) {
    errors.push_back("suspicion_alpha (" + std::to_string(suspicion_alpha) +
                     ") must be > 0 — it scales the minimum suspicion "
                     "timeout");
  }
  if (!(suspicion_beta >= 1.0)) {
    errors.push_back("suspicion_beta (" + std::to_string(suspicion_beta) +
                     ") must be >= 1 — the maximum suspicion timeout is "
                     "beta times the minimum");
  }
  if (!(nack_fraction > 0.0 && nack_fraction <= 1.0)) {
    errors.push_back("nack_fraction (" + std::to_string(nack_fraction) +
                     ") must be in (0, 1] — relays nack at this fraction of "
                     "the probe timeout");
  }
  return errors;
}

}  // namespace lifeguard::swim
