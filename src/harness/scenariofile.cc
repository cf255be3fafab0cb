#include "harness/scenariofile.h"

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "check/trace.h"  // entry_spec / timeline_from_specs — one grammar
#include "common/flatjson.h"
#include "common/narrow.h"
#include "harness/report.h"
#include "membership/backend.h"

namespace lifeguard::harness {

using flatjson::Value;

namespace {

// ---------------------------------------------------------------------------
// The documents: which keys each knows and requires

enum Need : std::uint8_t { kNo, kMay, kMust };

/// Every top-level key of the three documents that share the scenario keys,
/// with its need in each: scenario file, trace header, config object.
struct DocKey {
  const char* key;
  Need file, trace, config;
};

constexpr DocKey kDocKeys[] = {
    {"type", kMust, kMust, kNo},
    {"version", kMust, kMust, kNo},
    {"name", kMust, kNo, kNo},
    {"scenario", kNo, kMust, kNo},
    {"summary", kMay, kNo, kNo},
    {"paper_ref", kMay, kNo, kNo},
    {"nodes", kMay, kMust, kNo},
    {"seed", kMay, kMust, kNo},
    {"quiesce_us", kMay, kMust, kNo},
    {"run_length_us", kMay, kMust, kNo},
    {"config", kMay, kMust, kMay},
    {"alpha", kMay, kMust, kMay},
    {"beta", kMay, kMust, kMay},
    {"k", kMay, kMust, kMay},
    {"config_overrides", kMay, kMay, kMay},
    {"loss", kMay, kMust, kNo},
    {"lat_min_us", kMay, kMust, kNo},
    {"lat_max_us", kMay, kMust, kNo},
    {"proc_us", kMay, kMust, kNo},
    {"rbuf", kMay, kMust, kNo},
    {"membership", kMay, kMay, kNo},
    {"timeline", kMay, kMust, kNo},
    {"checked", kMay, kMay, kNo},
    {"invariants", kMay, kMay, kNo},
    {"slack", kMay, kMust, kNo},
    {"settle_us", kMay, kMust, kNo},
    {"cap_us", kMay, kMust, kNo},
    {"max_violations", kMay, kMust, kNo},
    {"metrics_us", kMay, kMay, kNo},
    {"spans", kNo, kMay, kNo},  // not a Scenario field; load_trace reads it
};

/// One of the three documents: its column of kDocKeys, and how its errors
/// name it.
struct Form {
  Need DocKey::*need;
  const char* type;      // the `type` value; nullptr when there is none
  const char* name_key;  // where the scenario name lives; nullptr: nowhere
  const char* what;
  const char* doc;
};

constexpr Form kFileForm{&DocKey::file, "scenario", "name", "scenario file",
                         "docs/scenario-files.md"};
constexpr Form kTraceForm{&DocKey::trace, "trace", "scenario", "trace header",
                          "docs/trace-format.md"};
constexpr Form kConfigForm{&DocKey::config, nullptr, nullptr, "config object",
                           "docs/scenario-files.md"};

/// Rejects a wrong `type` or `version`, a key the form does not know, and a
/// missing key it requires. Both typed forms are at version 1.
bool check_form(const Value& doc, const Form& form, std::string& error) {
  if (form.type != nullptr) {
    std::string type;
    if (!flatjson::get_str(doc, "type", type, error)) return false;
    if (type != form.type) {
      error = std::string("not a ") + form.what + ": type is '" + type +
              "' (expected '" + form.type + "')";
      return false;
    }
    std::int64_t version = 0;
    if (!flatjson::get_i64(doc, "version", version, error)) return false;
    if (version != ScenarioFile::kVersion) {
      error = std::string("unsupported ") + form.what + " version " +
              std::to_string(version) + " (this build reads version " +
              std::to_string(ScenarioFile::kVersion) + ")";
      return false;
    }
  }
  for (const auto& member : doc.members) {
    const DocKey* k = std::find_if(
        std::begin(kDocKeys), std::end(kDocKeys),
        [&](const DocKey& d) { return member.first == d.key; });
    if (k == std::end(kDocKeys) || k->*form.need == kNo) {
      error = "unknown key '" + member.first + "' in " + form.what +
              " (the format is documented in " + form.doc + ")";
      return false;
    }
  }
  for (const DocKey& k : kDocKeys) {
    if (k.*form.need == kMust && doc.find(k.key) == nullptr) {
      error = std::string("missing field '") + k.key + "'";
      return false;
    }
  }
  return true;
}

// Typed reads of one key. An absent key leaves `out` as it is: check_form
// has already required what the document requires.
bool read_key(const Value& o, const std::string& key, Duration& out,
              std::string& error) {
  return flatjson::get_i64(o, key, out.us, error, /*required=*/false);
}
bool read_key(const Value& o, const std::string& key, double& out,
              std::string& error) {
  return flatjson::get_dbl(o, key, out, error, /*required=*/false);
}
bool read_key(const Value& o, const std::string& key, bool& out,
              std::string& error) {
  return flatjson::get_bool(o, key, out, error, /*required=*/false);
}
bool read_key(const Value& o, const std::string& key, std::string& out,
              std::string& error) {
  return flatjson::get_str(o, key, out, error, /*required=*/false);
}
bool read_key(const Value& o, const std::string& key,
              std::vector<std::string>& out, std::string& error) {
  return flatjson::get_string_array(o, key, out, error, /*required=*/false);
}
template <std::integral T>
bool read_key(const Value& o, const std::string& key, T& out,
              std::string& error) {
  std::int64_t v = 0;
  return o.find(key) == nullptr ||
         (flatjson::get_i64(o, key, v, error) && narrow(v, key, out, error));
}

std::string json_value(Duration d) { return std::to_string(d.us); }
std::string json_value(bool b) { return b ? "true" : "false"; }
std::string json_value(double v) { return json_double(v); }
template <std::integral T>
std::string json_value(T v) {
  return std::to_string(v);
}

std::string join_defects(const std::vector<std::string>& defects,
                         const char* prefix) {
  std::string out;
  for (std::size_t i = 0; i < defects.size(); ++i) {
    if (i > 0) out += "; ";
    out += prefix + defects[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// The config keys

/// Every swim::Config field besides the suspicion tuning (alpha, beta and k
/// are top-level keys), under its config_overrides key, in the order the
/// overrides are written.
struct ConfigField {
  const char* key;
  std::variant<Duration swim::Config::*, int swim::Config::*,
               std::size_t swim::Config::*, bool swim::Config::*,
               double swim::Config::*>
      member;
};

constexpr ConfigField kConfigFields[] = {
    {"probe_interval_us", &swim::Config::probe_interval},
    {"probe_timeout_us", &swim::Config::probe_timeout},
    {"indirect_checks", &swim::Config::indirect_checks},
    {"reliable_fallback_probe", &swim::Config::reliable_fallback_probe},
    {"retransmit_mult", &swim::Config::retransmit_mult},
    {"gossip_interval_us", &swim::Config::gossip_interval},
    {"gossip_fanout", &swim::Config::gossip_fanout},
    {"gossip_to_dead_us", &swim::Config::gossip_to_dead},
    {"max_packet_bytes", &swim::Config::max_packet_bytes},
    {"push_pull_interval_us", &swim::Config::push_pull_interval},
    {"reconnect_interval_us", &swim::Config::reconnect_interval},
    {"join_retry_interval_us", &swim::Config::join_retry_interval},
    {"lha_probe", &swim::Config::lha_probe},
    {"lha_suspicion", &swim::Config::lha_suspicion},
    {"buddy_system", &swim::Config::buddy_system},
    {"lhm_max", &swim::Config::lhm_max},
    {"nack_fraction", &swim::Config::nack_fraction},
    {"nack_enabled", &swim::Config::nack_enabled},
    {"dead_reclaim_after_us", &swim::Config::dead_reclaim_after},
};

/// The config a preset name denotes; "Custom" (and only "Custom" — readers
/// check the name first) means a default-constructed Config, with every
/// differing field spelled out in config_overrides.
swim::Config preset_config(const std::string& name) {
  if (auto p = swim::Config::from_table1_name(name)) return *p;
  return swim::Config{};
}

/// (key, JSON value) of each config_overrides entry: every field where `c`
/// differs from its Table I preset given c's own alpha/beta/k. Empty when
/// the config *is* the preset.
std::vector<std::pair<const char*, std::string>> config_overrides(
    const swim::Config& c) {
  swim::Config base = preset_config(c.table1_name());
  base.suspicion_alpha = c.suspicion_alpha;
  base.suspicion_beta = c.suspicion_beta;
  base.suspicion_k = c.suspicion_k;
  std::vector<std::pair<const char*, std::string>> out;
  for (const ConfigField& f : kConfigFields) {
    std::visit(
        [&](auto m) {
          if (!(c.*m == base.*m)) out.emplace_back(f.key, json_value(c.*m));
        },
        f.member);
  }
  return out;
}

/// The config keys: the preset `config` names, then the suspicion tuning,
/// then config_overrides.
bool read_config(const Value& doc, swim::Config& c, std::string& error) {
  std::string name;
  if (doc.find("config") != nullptr) {
    if (!flatjson::get_str(doc, "config", name, error)) return false;
    if (name != "Custom" && !swim::Config::from_table1_name(name)) {
      error = "unknown config '" + name +
              "' (known: SWIM, LHA-Probe, LHA-Suspicion, Buddy System, "
              "Lifeguard, Custom)";
      return false;
    }
    c = preset_config(name);
  }
  if (!read_key(doc, "alpha", c.suspicion_alpha, error) ||
      !read_key(doc, "beta", c.suspicion_beta, error) ||
      !read_key(doc, "k", c.suspicion_k, error)) {
    return false;
  }
  if (const Value* overrides = doc.find("config_overrides")) {
    if (overrides->kind != Value::Kind::kObject) {
      error = "field 'config_overrides' is not an object";
      return false;
    }
    for (const auto& member : overrides->members) {
      const ConfigField* field = std::find_if(
          std::begin(kConfigFields), std::end(kConfigFields),
          [&](const ConfigField& f) { return member.first == f.key; });
      if (field == std::end(kConfigFields)) {
        error = "unknown config override '" + member.first +
                "' (config_overrides holds swim::Config fields; see "
                "docs/scenario-files.md)";
        return false;
      }
      const bool ok = std::visit(
          [&](auto m) {
            return read_key(*overrides, member.first, c.*m, error);
          },
          field->member);
      if (!ok) return false;
    }
  }
  // The writers name the Table I row of the config they write, so a name
  // that differs from the row the overrides build is never a config this
  // build wrote. (A trace header from before traces carried
  // config_overrides says "Custom" with none: it lands here, instead of
  // rebuilding the wrong run.)
  if (!name.empty() && c.table1_name() != name) {
    error = "config '" + name + "' is not the Table I row its preset and "
            "config_overrides build ('" + c.table1_name() +
            "'; the row follows lha_probe, lha_suspicion and buddy_system)";
    return false;
  }
  return true;
}

/// Reads one of the two forms that carry a whole scenario.
std::optional<Scenario> read_form(const Value& doc, const Form& form,
                                  std::string& error) {
  if (!check_form(doc, form, error)) return std::nullopt;
  Scenario s;
  std::vector<std::string> specs;
  if (!read_key(doc, form.name_key, s.name, error) ||
      !read_key(doc, "summary", s.summary, error) ||
      !read_key(doc, "paper_ref", s.paper_ref, error) ||
      !read_key(doc, "nodes", s.cluster_size, error) ||
      !flatjson::get_u64(doc, "seed", s.seed, error, /*required=*/false) ||
      !read_key(doc, "quiesce_us", s.quiesce, error) ||
      !read_key(doc, "run_length_us", s.run_length, error) ||
      !read_config(doc, s.config, error) ||
      !read_key(doc, "loss", s.network.udp_loss, error) ||
      !read_key(doc, "lat_min_us", s.network.latency_min, error) ||
      !read_key(doc, "lat_max_us", s.network.latency_max, error) ||
      !read_key(doc, "proc_us", s.msg_proc_cost, error) ||
      !read_key(doc, "rbuf", s.recv_buffer_bytes, error) ||
      !read_key(doc, "membership", s.membership, error) ||
      !read_key(doc, "timeline", specs, error) ||
      !read_key(doc, "checked", s.checks.enabled, error) ||
      !read_key(doc, "invariants", s.checks.invariants, error) ||
      !read_key(doc, "slack", s.checks.timeout_slack, error) ||
      !read_key(doc, "settle_us", s.checks.convergence_settle, error) ||
      !read_key(doc, "cap_us", s.checks.suspicion_cap, error) ||
      !read_key(doc, "max_violations", s.checks.max_violations, error) ||
      !read_key(doc, "metrics_us", s.metrics_interval, error)) {
    return std::nullopt;
  }
  std::string spec_error;
  if (!membership::parse_spec(s.membership, &spec_error)) {
    error = "bad membership spec '" + s.membership + "': " + spec_error;
    return std::nullopt;
  }
  if (!specs.empty()) {
    auto tl = check::timeline_from_specs(specs, error);
    if (!tl) return std::nullopt;
    s.timeline = std::move(*tl);
  }
  if (const auto defects = s.validate(); !defects.empty()) {
    error = join_defects(defects, "");
    return std::nullopt;
  }
  return s;
}

}  // namespace

std::string ScenarioFile::to_json(const Scenario& s) {
  const auto overrides = config_overrides(s.config);
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
  os << "  \"config\": \"" << json_escape(s.config.table1_name()) << "\",\n";
  os << "  \"alpha\": " << json_double(s.config.suspicion_alpha) << ",\n";
  os << "  \"beta\": " << json_double(s.config.suspicion_beta) << ",\n";
  os << "  \"k\": " << s.config.suspicion_k << ",\n";
  if (!overrides.empty()) {
    os << "  \"config_overrides\": {";
    for (std::size_t i = 0; i < overrides.size(); ++i) {
      os << (i > 0 ? ",\n" : "\n") << "    \"" << overrides[i].first
         << "\": " << overrides[i].second;
    }
    os << "\n  },\n";
  }
  os << "  \"loss\": " << json_double(s.network.udp_loss) << ",\n";
  os << "  \"lat_min_us\": " << s.network.latency_min.us << ",\n";
  os << "  \"lat_max_us\": " << s.network.latency_max.us << ",\n";
  os << "  \"proc_us\": " << s.msg_proc_cost.us << ",\n";
  os << "  \"rbuf\": " << s.recv_buffer_bytes << ",\n";
  os << "  \"membership\": \"" << json_escape(s.membership) << "\",\n";
  const auto strings_block = [&os](const std::vector<std::string>& v) {
    if (v.empty()) {
      os << "[]";
      return;
    }
    os << "[\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << "    \"" << json_escape(v[i]) << "\""
         << (i + 1 < v.size() ? ",\n" : "\n");
    }
    os << "  ]";
  };
  os << "  \"timeline\": ";
  strings_block(check::timeline_specs(s.timeline));
  os << ",\n";
  os << "  \"checked\": " << (s.checks.enabled ? "true" : "false") << ",\n";
  os << "  \"invariants\": ";
  strings_block(s.checks.invariants);
  os << ",\n";
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
  return read(doc, Document::kFile, error);
}

std::optional<Scenario> ScenarioFile::read(const Value& doc, Document d,
                                           std::string& error) {
  return read_form(doc, d == Document::kFile ? kFileForm : kTraceForm, error);
}

std::string ScenarioFile::config_members(const swim::Config& c) {
  std::string out = "\"config\":\"" + json_escape(c.table1_name()) +
                    "\",\"alpha\":" + json_double(c.suspicion_alpha) +
                    ",\"beta\":" + json_double(c.suspicion_beta) +
                    ",\"k\":" + std::to_string(c.suspicion_k);
  const auto overrides = config_overrides(c);
  if (overrides.empty()) return out;
  out += ",\"config_overrides\":{";
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + std::string(overrides[i].first) + "\":" + overrides[i].second;
  }
  return out + "}";
}

std::optional<swim::Config> ScenarioFile::config_from_json(
    std::string_view text, std::string& error) {
  Value doc;
  swim::Config c;
  if (!flatjson::parse(text, doc, error) ||
      !check_form(doc, kConfigForm, error) ||
      !read_config(doc, c, error)) {
    return std::nullopt;
  }
  if (const auto defects = c.validate(); !defects.empty()) {
    error = join_defects(defects, "config.");
    return std::nullopt;
  }
  return c;
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
