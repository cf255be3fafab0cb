#include "harness/scenariofile.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/flatjson.h"
#include "common/narrow.h"
#include "check/trace.h"  // entry_spec / timeline_from_specs — one grammar
#include "harness/report.h"
#include "membership/backend.h"

namespace lifeguard::harness {

using flatjson::Value;

namespace {

/// The config a preset name denotes; "Custom" (and only "Custom" — loaders
/// validate the name first) means a default-constructed Config, with every
/// differing field spelled out in config_overrides.
swim::Config preset_config(const std::string& name) {
  if (auto p = swim::Config::from_table1_name(name)) return *p;
  return swim::Config{};
}

std::string strings_block(const std::vector<std::string>& v,
                          const char* indent) {
  if (v.empty()) return "[]";
  std::string out = "[\n";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += std::string(indent) + "  \"" + json_escape(v[i]) + "\"";
    out += i + 1 < v.size() ? ",\n" : "\n";
  }
  out += std::string(indent) + "]";
  return out;
}

/// "config_overrides" body: one line per Config field that differs from the
/// named preset (suspicion alpha/beta/k live at the top level, like the
/// trace header). Empty string when the config *is* the preset.
std::string config_overrides_json(const swim::Config& cfg,
                                  const swim::Config& base) {
  std::ostringstream os;
  bool any = false;
  const auto put = [&](const char* key, const std::string& value) {
    os << (any ? ",\n" : "\n") << "    \"" << key << "\": " << value;
    any = true;
  };
  const auto put_us = [&](const char* key, Duration cur, Duration def) {
    if (cur.us != def.us) put(key, std::to_string(cur.us));
  };
  const auto put_int = [&](const char* key, std::int64_t cur,
                           std::int64_t def) {
    if (cur != def) put(key, std::to_string(cur));
  };
  const auto put_bool = [&](const char* key, bool cur, bool def) {
    if (cur != def) put(key, cur ? "true" : "false");
  };
  put_us("probe_interval_us", cfg.probe_interval, base.probe_interval);
  put_us("probe_timeout_us", cfg.probe_timeout, base.probe_timeout);
  put_int("indirect_checks", cfg.indirect_checks, base.indirect_checks);
  put_bool("reliable_fallback_probe", cfg.reliable_fallback_probe,
           base.reliable_fallback_probe);
  put_int("retransmit_mult", cfg.retransmit_mult, base.retransmit_mult);
  put_us("gossip_interval_us", cfg.gossip_interval, base.gossip_interval);
  put_int("gossip_fanout", cfg.gossip_fanout, base.gossip_fanout);
  put_us("gossip_to_dead_us", cfg.gossip_to_dead, base.gossip_to_dead);
  put_int("max_packet_bytes",
          static_cast<std::int64_t>(cfg.max_packet_bytes),
          static_cast<std::int64_t>(base.max_packet_bytes));
  put_us("push_pull_interval_us", cfg.push_pull_interval,
         base.push_pull_interval);
  put_us("reconnect_interval_us", cfg.reconnect_interval,
         base.reconnect_interval);
  put_us("join_retry_interval_us", cfg.join_retry_interval,
         base.join_retry_interval);
  put_bool("lha_probe", cfg.lha_probe, base.lha_probe);
  put_bool("lha_suspicion", cfg.lha_suspicion, base.lha_suspicion);
  put_bool("buddy_system", cfg.buddy_system, base.buddy_system);
  put_int("lhm_max", cfg.lhm_max, base.lhm_max);
  if (cfg.nack_fraction != base.nack_fraction) {
    put("nack_fraction", json_double(cfg.nack_fraction));
  }
  put_bool("nack_enabled", cfg.nack_enabled, base.nack_enabled);
  put_us("dead_reclaim_after_us", cfg.dead_reclaim_after,
         base.dead_reclaim_after);
  if (!any) return {};
  return os.str() + "\n  ";
}

bool apply_config_overrides(const Value& o, swim::Config& cfg,
                            std::string& error) {
  static const char* const kKnown[] = {
      "probe_interval_us",   "probe_timeout_us",
      "indirect_checks",     "reliable_fallback_probe",
      "retransmit_mult",     "gossip_interval_us",
      "gossip_fanout",       "gossip_to_dead_us",
      "max_packet_bytes",    "push_pull_interval_us",
      "reconnect_interval_us", "join_retry_interval_us",
      "lha_probe",           "lha_suspicion",
      "buddy_system",
      "lhm_max",             "nack_fraction",
      "nack_enabled",        "dead_reclaim_after_us",
  };
  for (const auto& member : o.members) {
    const std::string& key = member.first;
    bool known = false;
    for (const char* k : kKnown) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      error = "unknown config override '" + key +
              "' (config_overrides holds swim::Config fields; see "
              "docs/scenario-files.md)";
      return false;
    }
  }
  std::int64_t i64 = 0;
  std::uint64_t u64 = 0;
  constexpr bool opt = false;  // required=false: every override is optional
  if (!flatjson::get_i64(o, "probe_interval_us", cfg.probe_interval.us, error,
                         opt) ||
      !flatjson::get_i64(o, "probe_timeout_us", cfg.probe_timeout.us, error,
                         opt) ||
      !flatjson::get_i64(o, "gossip_interval_us", cfg.gossip_interval.us,
                         error, opt) ||
      !flatjson::get_i64(o, "gossip_to_dead_us", cfg.gossip_to_dead.us, error,
                         opt) ||
      !flatjson::get_i64(o, "push_pull_interval_us",
                         cfg.push_pull_interval.us, error, opt) ||
      !flatjson::get_i64(o, "reconnect_interval_us",
                         cfg.reconnect_interval.us, error, opt) ||
      !flatjson::get_i64(o, "join_retry_interval_us",
                         cfg.join_retry_interval.us, error, opt) ||
      !flatjson::get_i64(o, "dead_reclaim_after_us",
                         cfg.dead_reclaim_after.us, error, opt)) {
    return false;
  }
  for (const auto& [key, field] :
       {std::pair{"indirect_checks", &swim::Config::indirect_checks},
        std::pair{"retransmit_mult", &swim::Config::retransmit_mult},
        std::pair{"gossip_fanout", &swim::Config::gossip_fanout},
        std::pair{"lhm_max", &swim::Config::lhm_max}}) {
    if (o.find(key) == nullptr) continue;
    if (!flatjson::get_i64(o, key, i64, error) ||
        !narrow(i64, key, cfg.*field, error)) {
      return false;
    }
  }
  if (o.find("max_packet_bytes") != nullptr) {
    if (!flatjson::get_u64(o, "max_packet_bytes", u64, error)) return false;
    cfg.max_packet_bytes = static_cast<std::size_t>(u64);
  }
  if (!flatjson::get_bool(o, "reliable_fallback_probe",
                          cfg.reliable_fallback_probe, error, opt) ||
      !flatjson::get_bool(o, "lha_probe", cfg.lha_probe, error, opt) ||
      !flatjson::get_bool(o, "lha_suspicion", cfg.lha_suspicion, error,
                          opt) ||
      !flatjson::get_bool(o, "buddy_system", cfg.buddy_system, error, opt) ||
      !flatjson::get_bool(o, "nack_enabled", cfg.nack_enabled, error, opt)) {
    return false;
  }
  if (!flatjson::get_dbl(o, "nack_fraction", cfg.nack_fraction, error, opt)) {
    return false;
  }
  return true;
}

}  // namespace

std::string ScenarioFile::to_json(const Scenario& s) {
  const std::string config_name = s.config.table1_name();
  swim::Config base = preset_config(config_name);
  base.suspicion_alpha = s.config.suspicion_alpha;
  base.suspicion_beta = s.config.suspicion_beta;
  base.suspicion_k = s.config.suspicion_k;
  const std::string overrides = config_overrides_json(s.config, base);

  std::ostringstream os;
  os << "{\n";
  os << "  \"type\": \"scenario\",\n";
  os << "  \"version\": " << kVersion << ",\n";
  os << "  \"name\": \"" << json_escape(s.name) << "\",\n";
  os << "  \"summary\": \"" << json_escape(s.summary) << "\",\n";
  os << "  \"paper_ref\": \"" << json_escape(s.paper_ref) << "\",\n";
  os << "  \"nodes\": " << s.cluster_size << ",\n";
  os << "  \"seed\": \"" << s.seed << "\",\n";
  os << "  \"quiesce_us\": " << s.quiesce.us << ",\n";
  os << "  \"run_length_us\": " << s.run_length.us << ",\n";
  os << "  \"config\": \"" << json_escape(config_name) << "\",\n";
  os << "  \"alpha\": " << json_double(s.config.suspicion_alpha) << ",\n";
  os << "  \"beta\": " << json_double(s.config.suspicion_beta) << ",\n";
  os << "  \"k\": " << s.config.suspicion_k << ",\n";
  if (!overrides.empty()) {
    os << "  \"config_overrides\": {" << overrides << "},\n";
  }
  os << "  \"loss\": " << json_double(s.network.udp_loss) << ",\n";
  os << "  \"lat_min_us\": " << s.network.latency_min.us << ",\n";
  os << "  \"lat_max_us\": " << s.network.latency_max.us << ",\n";
  os << "  \"proc_us\": " << s.msg_proc_cost.us << ",\n";
  os << "  \"rbuf\": " << s.recv_buffer_bytes << ",\n";
  os << "  \"membership\": \"" << json_escape(s.membership) << "\",\n";
  os << "  \"timeline\": "
     << strings_block(check::timeline_specs(s.timeline), "  ")
     << ",\n";
  os << "  \"checked\": " << (s.checks.enabled ? "true" : "false") << ",\n";
  os << "  \"invariants\": " << strings_block(s.checks.invariants, "  ")
     << ",\n";
  os << "  \"slack\": " << json_double(s.checks.timeout_slack) << ",\n";
  os << "  \"settle_us\": " << s.checks.convergence_settle.us << ",\n";
  os << "  \"cap_us\": " << s.checks.suspicion_cap.us << ",\n";
  os << "  \"max_violations\": " << s.checks.max_violations << ",\n";
  os << "  \"metrics_us\": " << s.metrics_interval.us << "\n";
  os << "}\n";
  return os.str();
}

std::optional<Scenario> ScenarioFile::from_json(const std::string& text,
                                                std::string& error) {
  Value doc;
  if (!flatjson::parse(text, doc, error)) return std::nullopt;

  static const char* const kKnown[] = {
      "type",        "version",     "name",
      "summary",     "paper_ref",   "nodes",
      "seed",        "quiesce_us",  "run_length_us",
      "config",      "alpha",       "beta",
      "k",           "config_overrides", "loss",
      "lat_min_us",  "lat_max_us",  "proc_us",
      "rbuf",        "membership",  "timeline",
      "checked",     "invariants",  "slack",
      "settle_us",   "cap_us",      "max_violations",
      "metrics_us",
  };
  for (const auto& member : doc.members) {
    const std::string& key = member.first;
    bool known = false;
    for (const char* k : kKnown) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      error = "unknown key '" + key +
              "' in scenario file (the format is documented in "
              "docs/scenario-files.md)";
      return std::nullopt;
    }
  }

  std::string type;
  if (!flatjson::get_str(doc, "type", type, error)) return std::nullopt;
  if (type != "scenario") {
    error = "not a scenario file: type is '" + type +
            "' (expected 'scenario')";
    return std::nullopt;
  }
  std::int64_t version = 0;
  if (!flatjson::get_i64(doc, "version", version, error)) return std::nullopt;
  if (version != kVersion) {
    error = "unsupported scenario-file version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kVersion) + ")";
    return std::nullopt;
  }

  Scenario s;
  if (!flatjson::get_str(doc, "name", s.name, error)) return std::nullopt;
  if (!flatjson::get_str(doc, "summary", s.summary, error,
                         /*required=*/false) ||
      !flatjson::get_str(doc, "paper_ref", s.paper_ref, error,
                         /*required=*/false)) {
    return std::nullopt;
  }
  std::int64_t i64 = 0;
  if (doc.find("nodes") != nullptr) {
    if (!flatjson::get_i64(doc, "nodes", i64, error) ||
        !narrow(i64, "nodes", s.cluster_size, error)) {
      return std::nullopt;
    }
  }
  if (!flatjson::get_u64(doc, "seed", s.seed, error, /*required=*/false) ||
      !flatjson::get_i64(doc, "quiesce_us", s.quiesce.us, error,
                         /*required=*/false) ||
      !flatjson::get_i64(doc, "run_length_us", s.run_length.us, error,
                         /*required=*/false)) {
    return std::nullopt;
  }

  // Config: preset base, then the suspicion tuning, then field overrides —
  // the same decomposition the trace header uses, extended so hand-tuned
  // ("Custom") configurations round-trip field-for-field.
  std::string config_name;
  if (!flatjson::get_str(doc, "config", config_name, error,
                         /*required=*/false)) {
    return std::nullopt;
  }
  if (!config_name.empty()) {
    if (config_name != "Custom" &&
        !swim::Config::from_table1_name(config_name)) {
      error = "unknown config '" + config_name +
              "' (known: SWIM, LHA-Probe, LHA-Suspicion, Buddy System, "
              "Lifeguard, Custom)";
      return std::nullopt;
    }
    s.config = preset_config(config_name);
  }
  if (!flatjson::get_dbl(doc, "alpha", s.config.suspicion_alpha, error,
                         /*required=*/false) ||
      !flatjson::get_dbl(doc, "beta", s.config.suspicion_beta, error,
                         /*required=*/false)) {
    return std::nullopt;
  }
  if (doc.find("k") != nullptr) {
    if (!flatjson::get_i64(doc, "k", i64, error) ||
        !narrow(i64, "k", s.config.suspicion_k, error)) {
      return std::nullopt;
    }
  }
  if (const Value* overrides = doc.find("config_overrides")) {
    if (overrides->kind != Value::Kind::kObject) {
      error = "field 'config_overrides' is not an object";
      return std::nullopt;
    }
    if (!apply_config_overrides(*overrides, s.config, error)) {
      return std::nullopt;
    }
  }

  if (!flatjson::get_dbl(doc, "loss", s.network.udp_loss, error,
                         /*required=*/false) ||
      !flatjson::get_i64(doc, "lat_min_us", s.network.latency_min.us, error,
                         /*required=*/false) ||
      !flatjson::get_i64(doc, "lat_max_us", s.network.latency_max.us, error,
                         /*required=*/false) ||
      !flatjson::get_i64(doc, "proc_us", s.msg_proc_cost.us, error,
                         /*required=*/false)) {
    return std::nullopt;
  }
  std::uint64_t u64 = 0;
  if (doc.find("rbuf") != nullptr) {
    if (!flatjson::get_u64(doc, "rbuf", u64, error)) return std::nullopt;
    s.recv_buffer_bytes = static_cast<std::size_t>(u64);
  }

  if (!flatjson::get_str(doc, "membership", s.membership, error,
                         /*required=*/false)) {
    return std::nullopt;
  }
  std::string spec_error;
  if (!membership::parse_spec(s.membership, &spec_error)) {
    error = "bad membership spec '" + s.membership + "': " + spec_error;
    return std::nullopt;
  }

  std::vector<std::string> specs;
  if (!flatjson::get_string_array(doc, "timeline", specs, error,
                                  /*required=*/false)) {
    return std::nullopt;
  }
  if (!specs.empty()) {
    auto tl = check::timeline_from_specs(specs, error);
    if (!tl) return std::nullopt;
    s.timeline = std::move(*tl);
  }

  if (!flatjson::get_bool(doc, "checked", s.checks.enabled, error,
                          /*required=*/false) ||
      !flatjson::get_string_array(doc, "invariants", s.checks.invariants,
                                  error, /*required=*/false) ||
      !flatjson::get_dbl(doc, "slack", s.checks.timeout_slack, error,
                         /*required=*/false) ||
      !flatjson::get_i64(doc, "settle_us", s.checks.convergence_settle.us,
                         error, /*required=*/false) ||
      !flatjson::get_i64(doc, "cap_us", s.checks.suspicion_cap.us, error,
                         /*required=*/false)) {
    return std::nullopt;
  }
  if (doc.find("max_violations") != nullptr) {
    if (!flatjson::get_u64(doc, "max_violations", u64, error)) {
      return std::nullopt;
    }
    s.checks.max_violations = static_cast<std::size_t>(u64);
  }
  if (!flatjson::get_i64(doc, "metrics_us", s.metrics_interval.us, error,
                         /*required=*/false)) {
    return std::nullopt;
  }

  const std::vector<std::string> defects = s.validate();
  if (!defects.empty()) {
    error.clear();
    for (std::size_t i = 0; i < defects.size(); ++i) {
      if (i > 0) error += "; ";
      error += defects[i];
    }
    return std::nullopt;
  }
  return s;
}

bool ScenarioFile::save(const Scenario& s, const std::string& path,
                        std::string& error) {
  std::ofstream out(path);
  if (!out) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << to_json(s);
  out.flush();
  if (!out) {
    error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::optional<Scenario> ScenarioFile::load(const std::string& path,
                                           std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = from_json(buf.str(), error);
  if (!parsed) error = path + ": " + error;
  return parsed;
}

}  // namespace lifeguard::harness
