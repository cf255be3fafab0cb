#include "harness/gate.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/flatjson.h"
#include "harness/report.h"

namespace lifeguard::harness {

using flatjson::Value;

const MetricBand* ScenarioBaseline::find(const std::string& metric) const {
  for (const MetricBand& b : bands) {
    if (b.metric == metric) return &b;
  }
  return nullptr;
}

const ScenarioBaseline* BaselineSet::find(const std::string& scenario) const {
  for (const ScenarioBaseline& e : entries) {
    if (e.scenario == scenario) return &e;
  }
  return nullptr;
}

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Short human form for values and bounds ("12", "1.34", "2.6e+06").
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ---- band policy (see the header comment) ----

MetricBand exact_band(const char* metric, double v) {
  return {metric, v, v};
}

MetricBand count_band(const char* metric, double v) {
  const double slack = 0.25 * v + 2.0;
  return {metric, std::max(0.0, v - slack), v + slack};
}

MetricBand load_band(const char* metric, double v) {
  return {metric, 0.90 * v, 1.10 * v};
}

MetricBand latency_band(const char* metric, double v) {
  const double slack = 0.25 * v + 0.25;
  return {metric, std::max(0.0, v - slack), v + slack};
}

}  // namespace

std::vector<GateMetric> gate_metrics(const Scenario& s, const RunResult& r) {
  std::vector<GateMetric> out;
  out.push_back({"fp_events", static_cast<double>(r.fp_events)});
  out.push_back({"fp_healthy_events",
                 static_cast<double>(r.fp_healthy_events)});
  out.push_back({"detections", static_cast<double>(r.first_detect.size())});
  if (!r.first_detect.empty()) {
    out.push_back({"detect_p50_s", median(r.first_detect)});
    out.push_back({"detect_max_s", *std::max_element(r.first_detect.begin(),
                                                     r.first_detect.end())});
  }
  if (!r.full_dissem.empty()) {
    out.push_back({"dissem_p50_s", median(r.full_dissem)});
  }
  out.push_back({"msgs_sent", static_cast<double>(r.msgs_sent)});
  out.push_back({"bytes_sent", static_cast<double>(r.bytes_sent)});
  if (s.checks.enabled) {
    out.push_back({"violations",
                   static_cast<double>(r.checks.total_violations)});
  }
  return out;
}

ScenarioBaseline record_baseline(const Scenario& s, const RunResult& r) {
  ScenarioBaseline b;
  b.scenario = s.name;
  b.seed = s.seed;
  for (const GateMetric& m : gate_metrics(s, r)) {
    if (m.name == "detections" || m.name == "violations") {
      b.bands.push_back(exact_band(m.name.c_str(), m.value));
    } else if (m.name == "fp_events" || m.name == "fp_healthy_events") {
      b.bands.push_back(count_band(m.name.c_str(), m.value));
    } else if (m.name == "msgs_sent" || m.name == "bytes_sent") {
      b.bands.push_back(load_band(m.name.c_str(), m.value));
    } else {  // latency seconds
      b.bands.push_back(latency_band(m.name.c_str(), m.value));
    }
  }
  return b;
}

std::string GateDiff::describe() const {
  if (missing) {
    return metric + " missing from run (expected within [" + fmt(lo) + ", " +
           fmt(hi) + "])";
  }
  return metric + " = " + fmt(value) + " outside [" + fmt(lo) + ", " +
         fmt(hi) + "]";
}

std::string GateReport::describe() const {
  if (passed) {
    return "gate OK " + scenario;
  }
  std::string out = "gate FAIL " + scenario;
  if (!error.empty()) {
    out += ": " + error;
  }
  for (const GateDiff& d : diffs) {
    out += "\n  " + d.describe();
  }
  return out;
}

GateReport gate_run(const Scenario& s, const RunResult& r,
                    const BaselineSet& baselines) {
  GateReport report;
  report.scenario = s.name;
  const ScenarioBaseline* base = baselines.find(s.name);
  if (base == nullptr) {
    report.passed = false;
    report.error = "no baseline recorded for scenario '" + s.name +
                   "' (re-record with tools/record-baselines.sh)";
    return report;
  }
  if (base->seed != s.seed) {
    report.passed = false;
    report.error = "seed mismatch: run used " + std::to_string(s.seed) +
                   " but the baseline was recorded at seed " +
                   std::to_string(base->seed) +
                   " (bands gate the recorded seed only)";
    return report;
  }
  const std::vector<GateMetric> metrics = gate_metrics(s, r);
  for (const MetricBand& band : base->bands) {
    const GateMetric* m = nullptr;
    for (const GateMetric& candidate : metrics) {
      if (candidate.name == band.metric) {
        m = &candidate;
        break;
      }
    }
    if (m == nullptr) {
      report.diffs.push_back({band.metric,
                              std::numeric_limits<double>::quiet_NaN(),
                              band.lo, band.hi, /*missing=*/true});
      continue;
    }
    if (m->value < band.lo || m->value > band.hi) {
      report.diffs.push_back({band.metric, m->value, band.lo, band.hi,
                              /*missing=*/false});
    }
  }
  report.passed = report.diffs.empty();
  return report;
}

// ---------------------------------------------------------------------------
// Codec

std::string baselines_to_json(const BaselineSet& set) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"type\": \"scenario-baselines\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < set.entries.size(); ++i) {
    const ScenarioBaseline& e = set.entries[i];
    os << "    {\n";
    os << "      \"scenario\": \"" << json_escape(e.scenario) << "\",\n";
    os << "      \"seed\": \"" << e.seed << "\",\n";
    os << "      \"bands\": [\n";
    for (std::size_t j = 0; j < e.bands.size(); ++j) {
      const MetricBand& b = e.bands[j];
      os << "        {\"metric\": \"" << json_escape(b.metric)
         << "\", \"lo\": " << json_double(b.lo)
         << ", \"hi\": " << json_double(b.hi) << "}"
         << (j + 1 < e.bands.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (i + 1 < set.entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

namespace {

bool check_keys(const Value& o, std::initializer_list<const char*> known,
                const char* where, std::string& error) {
  for (const auto& member : o.members) {
    bool ok = false;
    for (const char* k : known) {
      if (member.first == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      error = std::string("unknown key '") + member.first + "' in " + where;
      return false;
    }
  }
  return true;
}

bool parse_band(const Value& o, MetricBand& band, std::string& error) {
  if (o.kind != Value::Kind::kObject) {
    error = "array 'bands' holds a non-object element";
    return false;
  }
  if (!check_keys(o, {"metric", "lo", "hi"}, "a baseline band", error)) {
    return false;
  }
  return flatjson::get_str(o, "metric", band.metric, error) &&
         flatjson::get_dbl(o, "lo", band.lo, error) &&
         flatjson::get_dbl(o, "hi", band.hi, error);
}

bool parse_entry(const Value& o, ScenarioBaseline& entry,
                 std::string& error) {
  if (o.kind != Value::Kind::kObject) {
    error = "array 'entries' holds a non-object element";
    return false;
  }
  if (!check_keys(o, {"scenario", "seed", "bands"}, "a baseline entry",
                  error)) {
    return false;
  }
  if (!flatjson::get_str(o, "scenario", entry.scenario, error) ||
      !flatjson::get_u64(o, "seed", entry.seed, error)) {
    return false;
  }
  const Value* bands = o.find("bands");
  if (bands == nullptr || bands->kind != Value::Kind::kArray) {
    error = "missing array field 'bands' in baseline entry '" +
            entry.scenario + "'";
    return false;
  }
  for (const Value& b : bands->array) {
    MetricBand band;
    if (!parse_band(b, band, error)) {
      error = "baseline entry '" + entry.scenario + "': " + error;
      return false;
    }
    entry.bands.push_back(std::move(band));
  }
  return true;
}

}  // namespace

std::optional<BaselineSet> baselines_from_json(const std::string& text,
                                               std::string& error) {
  Value doc;
  if (!flatjson::parse(text, doc, error)) return std::nullopt;
  if (!check_keys(doc, {"type", "version", "entries"}, "a baselines file",
                  error)) {
    return std::nullopt;
  }
  std::string type;
  if (!flatjson::get_str(doc, "type", type, error)) return std::nullopt;
  if (type != "scenario-baselines") {
    error = "not a baselines file: type is '" + type +
            "' (expected 'scenario-baselines')";
    return std::nullopt;
  }
  std::int64_t version = 0;
  if (!flatjson::get_i64(doc, "version", version, error)) return std::nullopt;
  if (version != 1) {
    error = "unsupported baselines version " + std::to_string(version) +
            " (this build reads version 1)";
    return std::nullopt;
  }
  const Value* entries = doc.find("entries");
  if (entries == nullptr || entries->kind != Value::Kind::kArray) {
    error = "missing array field 'entries'";
    return std::nullopt;
  }
  BaselineSet set;
  for (const Value& e : entries->array) {
    ScenarioBaseline entry;
    if (!parse_entry(e, entry, error)) return std::nullopt;
    if (set.find(entry.scenario) != nullptr) {
      error = "duplicate baseline entry '" + entry.scenario + "'";
      return std::nullopt;
    }
    set.entries.push_back(std::move(entry));
  }
  return set;
}

bool save_baselines_file(const BaselineSet& set, const std::string& path,
                         std::string& error) {
  std::ofstream out(path);
  if (!out) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << baselines_to_json(set);
  out.flush();
  if (!out) {
    error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::optional<BaselineSet> load_baselines_file(const std::string& path,
                                               std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = baselines_from_json(buf.str(), error);
  if (!parsed) error = path + ": " + error;
  return parsed;
}

}  // namespace lifeguard::harness
