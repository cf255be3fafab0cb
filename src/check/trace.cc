#include "check/trace.h"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/flatjson.h"
#include "common/narrow.h"
#include "harness/report.h"

namespace lifeguard::check {

using harness::json_double;
using harness::json_escape;

bool Trace::has_datagrams() const {
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kDatagram) return true;
  }
  return false;
}

bool Trace::has_probe_spans() const {
  for (const TraceEvent& e : events) {
    if (is_probe_span_event(e.kind)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Header derivation & timeline specs

namespace {

std::string us_spec(Duration d) { return std::to_string(d.us) + "us"; }

std::string selector_spec(const fault::VictimSelector& v) {
  switch (v.mode) {
    case fault::VictimSelector::Mode::kUniform:
      return "victims=" + std::to_string(v.count);
    case fault::VictimSelector::Mode::kExplicit: {
      std::string out = "nodes=";
      for (std::size_t i = 0; i < v.indices.size(); ++i) {
        if (i > 0) out += "+";
        out += std::to_string(v.indices[i]);
      }
      return out;
    }
    case fault::VictimSelector::Mode::kFraction:
      return "pct=" + json_double(v.fraction * 100.0);
    case fault::VictimSelector::Mode::kIsland:
      return "island=" + std::to_string(v.count) + "+" +
             std::to_string(v.first);
  }
  return "victims=1";
}

}  // namespace

std::string entry_spec(const fault::TimelineEntry& e) {
  std::string out = std::string(fault_kind_name(e.fault.kind)) + "@" +
                    us_spec(e.at) + ":" + us_spec(e.duration) + "," +
                    selector_spec(e.victims);
  const fault::Fault& f = e.fault;
  switch (f.kind) {
    case fault::FaultKind::kBlock:
    case fault::FaultKind::kPartition:
      break;
    case fault::FaultKind::kIntervalBlock:
    case fault::FaultKind::kFlapping:
      out += ",d=" + us_spec(f.period) + ",i=" + us_spec(f.gap);
      break;
    case fault::FaultKind::kChurn:
      out += ",down=" + us_spec(f.period) + ",up=" + us_spec(f.gap);
      break;
    case fault::FaultKind::kStress:
      out += ",bmin=" + us_spec(f.stress.block_min) +
             ",bmax=" + us_spec(f.stress.block_max) +
             ",rmin=" + us_spec(f.stress.run_min) +
             ",rmax=" + us_spec(f.stress.run_max);
      break;
    case fault::FaultKind::kLinkLoss:
      out += ",egress=" + json_double(f.egress_loss) +
             ",ingress=" + json_double(f.ingress_loss);
      break;
    case fault::FaultKind::kLatency:
      out += ",extra=" + us_spec(f.extra_latency) +
             ",jitter=" + us_spec(f.jitter);
      break;
    case fault::FaultKind::kDuplicate:
      out += ",p=" + json_double(f.probability);
      break;
    case fault::FaultKind::kReorder:
      out += ",p=" + json_double(f.probability) +
             ",spread=" + us_spec(f.spread);
      break;
  }
  return out;
}

std::vector<std::string> timeline_specs(const fault::Timeline& tl) {
  std::vector<std::string> out;
  out.reserve(tl.size());
  for (const fault::TimelineEntry& e : tl.entries()) {
    out.push_back(entry_spec(e));
  }
  return out;
}

std::optional<fault::Timeline> timeline_from_specs(
    const std::vector<std::string>& specs, std::string& error) {
  fault::Timeline tl;
  for (const std::string& spec : specs) {
    std::string entry_error;
    const auto e = fault::parse_timeline_entry(spec, entry_error);
    if (!e) {
      error = "bad timeline spec '" + spec + "': " + entry_error;
      return std::nullopt;
    }
    tl.add(*e);
  }
  return tl;
}

TraceHeader make_header(const harness::Scenario& s) {
  TraceHeader h;
  h.scenario = s.name;
  h.seed = s.seed;
  h.cluster_size = s.cluster_size;
  h.quiesce = s.quiesce;
  h.run_length = s.run_length;
  // The header carries the preset name plus the suspicion tuning — the
  // only config fields the catalog varies. A config that differs from its
  // preset in any *other* field is recorded as "Custom" so replay_file
  // rejects it honestly instead of silently rebuilding the wrong run
  // (replay(Scenario, Trace) still works for such runs).
  h.config_name = s.config.table1_name();
  h.suspicion_alpha = s.config.suspicion_alpha;
  h.suspicion_beta = s.config.suspicion_beta;
  h.suspicion_k = s.config.suspicion_k;
  if (auto preset = swim::Config::from_table1_name(h.config_name)) {
    preset->suspicion_alpha = h.suspicion_alpha;
    preset->suspicion_beta = h.suspicion_beta;
    preset->suspicion_k = h.suspicion_k;
    if (!(*preset == s.config)) h.config_name = "Custom";
  }
  h.network = s.network;
  h.msg_proc_cost = s.msg_proc_cost;
  h.recv_buffer_bytes = s.recv_buffer_bytes;
  h.timeline = timeline_specs(s.timeline);
  h.checks = s.checks;
  h.metrics_interval = s.metrics_interval;
  h.membership = s.membership;
  return h;
}

TraceRecorder::TraceRecorder(const harness::Scenario& s, bool include_datagrams,
                             bool include_probe_spans)
    : include_datagrams_(include_datagrams),
      include_probe_spans_(include_probe_spans) {
  trace_.header = make_header(s);
  trace_.header.probe_spans = include_probe_spans;
}

void TraceRecorder::on_trace_event(const TraceEvent& e) {
  trace_.events.push_back(e);
}

// ---------------------------------------------------------------------------
// Save

namespace {

std::string strings_json(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(v[i]) + "\"";
  }
  out += "]";
  return out;
}

}  // namespace

std::string event_line(const TraceEvent& e) {
  std::string out = "{\"t\":" + std::to_string(e.at.us) + ",\"k\":\"" +
                    trace_event_kind_name(e.kind) + "\"";
  if (e.node >= 0) out += ",\"n\":" + std::to_string(e.node);
  if (e.peer >= 0) out += ",\"m\":" + std::to_string(e.peer);
  if (e.origin >= 0) out += ",\"o\":" + std::to_string(e.origin);
  if (e.incarnation != 0) out += ",\"inc\":" + std::to_string(e.incarnation);
  if (e.originated) out += ",\"og\":1";
  if (e.value != 0.0) out += ",\"v\":" + json_double(e.value);
  out += "}";
  return out;
}

void save_trace(const Trace& t, std::ostream& out) {
  const TraceHeader& h = t.header;
  out << "{\"type\":\"trace\",\"version\":1"
      << ",\"scenario\":\"" << json_escape(h.scenario) << "\""
      << ",\"seed\":\"" << h.seed << "\""
      << ",\"nodes\":" << h.cluster_size
      << ",\"quiesce_us\":" << h.quiesce.us
      << ",\"run_length_us\":" << h.run_length.us
      << ",\"config\":\"" << json_escape(h.config_name) << "\""
      << ",\"alpha\":" << json_double(h.suspicion_alpha)
      << ",\"beta\":" << json_double(h.suspicion_beta)
      << ",\"k\":" << h.suspicion_k
      << ",\"loss\":" << json_double(h.network.udp_loss)
      << ",\"lat_min_us\":" << h.network.latency_min.us
      << ",\"lat_max_us\":" << h.network.latency_max.us
      << ",\"proc_us\":" << h.msg_proc_cost.us
      << ",\"rbuf\":" << h.recv_buffer_bytes
      << ",\"timeline\":" << strings_json(h.timeline)
      << ",\"checked\":" << (h.checks.enabled ? "true" : "false")
      << ",\"invariants\":" << strings_json(h.checks.invariants)
      << ",\"slack\":" << json_double(h.checks.timeout_slack)
      << ",\"settle_us\":" << h.checks.convergence_settle.us
      << ",\"cap_us\":" << h.checks.suspicion_cap.us
      << ",\"max_violations\":" << h.checks.max_violations
      << ",\"metrics_us\":" << h.metrics_interval.us
      << ",\"spans\":" << (h.probe_spans ? "true" : "false");
  // Emitted only for non-default backends: pre-membership traces stay
  // byte-identical (golden-parity) and load with the "swim" default.
  if (h.membership != "swim") {
    out << ",\"membership\":\"" << json_escape(h.membership) << "\"";
  }
  out << "}\n";
  for (const TraceEvent& e : t.events) {
    out << event_line(e) << "\n";
  }
  out << "{\"type\":\"end\",\"events\":" << t.events.size() << "}\n";
}

bool save_trace_file(const Trace& t, const std::string& path,
                     std::string& error) {
  std::ofstream out(path);
  if (!out) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  save_trace(t, out);
  out.flush();
  if (!out) {
    error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Load (shared flat-JSON scanner — common/flatjson.h)

namespace {

using flatjson::Value;
using flatjson::get_dbl;
using flatjson::get_i64;
using flatjson::get_str;
using flatjson::get_string_array;
using flatjson::get_u64;

const Value* field(const Value& o, const std::string& key) {
  return o.find(key);
}

bool parse_header(const Value& o, TraceHeader& h, std::string& error) {
  std::int64_t i64 = 0;
  if (!get_str(o, "scenario", h.scenario, error)) return false;
  if (!get_u64(o, "seed", h.seed, error)) return false;
  if (!get_i64(o, "nodes", i64, error) ||
      !narrow(i64, "nodes", h.cluster_size, error)) {
    return false;
  }
  if (!get_i64(o, "quiesce_us", h.quiesce.us, error)) return false;
  if (!get_i64(o, "run_length_us", h.run_length.us, error)) return false;
  if (!get_str(o, "config", h.config_name, error)) return false;
  if (!get_dbl(o, "alpha", h.suspicion_alpha, error)) return false;
  if (!get_dbl(o, "beta", h.suspicion_beta, error)) return false;
  if (!get_i64(o, "k", i64, error) ||
      !narrow(i64, "k", h.suspicion_k, error)) {
    return false;
  }
  if (!get_dbl(o, "loss", h.network.udp_loss, error)) return false;
  if (!get_i64(o, "lat_min_us", h.network.latency_min.us, error)) return false;
  if (!get_i64(o, "lat_max_us", h.network.latency_max.us, error)) return false;
  if (!get_i64(o, "proc_us", h.msg_proc_cost.us, error)) return false;
  if (!get_i64(o, "rbuf", i64, error) ||
      !narrow(i64, "rbuf", h.recv_buffer_bytes, error)) {
    return false;
  }
  if (!get_string_array(o, "timeline", h.timeline, error)) return false;
  const Value* checked = field(o, "checked");
  h.checks.enabled = checked != nullptr && checked->boolean;
  if (!get_string_array(o, "invariants", h.checks.invariants, error,
                        /*required=*/false)) {
    return false;
  }
  if (!get_dbl(o, "slack", h.checks.timeout_slack, error)) return false;
  if (!get_i64(o, "settle_us", h.checks.convergence_settle.us, error)) {
    return false;
  }
  if (!get_i64(o, "cap_us", h.checks.suspicion_cap.us, error)) return false;
  if (!get_i64(o, "max_violations", i64, error) ||
      !narrow(i64, "max_violations", h.checks.max_violations, error)) {
    return false;
  }
  // Telemetry fields are optional: pre-telemetry traces omit them.
  if (!get_i64(o, "metrics_us", h.metrics_interval.us, error,
               /*required=*/false)) {
    return false;
  }
  if (const Value* spans = field(o, "spans")) {
    h.probe_spans = spans->boolean;
  }
  // Absent in pre-backend and swim traces; defaults to "swim".
  if (!get_str(o, "membership", h.membership, error, /*required=*/false)) {
    return false;
  }
  return true;
}

bool parse_event(const Value& o, TraceEvent& e, std::string& error) {
  std::string kind_name;
  if (!get_i64(o, "t", e.at.us, error)) return false;
  if (!get_str(o, "k", kind_name, error)) return false;
  const auto kind = trace_event_kind_from_name(kind_name);
  if (!kind) {
    error = "unknown event kind '" + kind_name + "'";
    return false;
  }
  e.kind = *kind;
  std::int64_t i64 = 0;
  for (const auto& [key, member] : {std::pair{"n", &TraceEvent::node},
                                   std::pair{"m", &TraceEvent::peer},
                                   std::pair{"o", &TraceEvent::origin}}) {
    i64 = -1;
    if (!get_i64(o, key, i64, error, /*required=*/false) ||
        !narrow(i64, key, e.*member, error)) {
      return false;
    }
  }
  if (field(o, "inc") != nullptr) {
    if (!get_u64(o, "inc", e.incarnation, error)) return false;
  }
  i64 = 0;
  if (!get_i64(o, "og", i64, error, /*required=*/false)) return false;
  e.originated = i64 != 0;
  if (field(o, "v") != nullptr) {
    if (!get_dbl(o, "v", e.value, error)) return false;
  }
  return true;
}

}  // namespace

std::optional<TraceEvent> event_from_line(std::string_view line,
                                          std::string& error) {
  Value o;
  if (!flatjson::parse(line, o, error)) return std::nullopt;
  TraceEvent e;
  if (!parse_event(o, e, error)) return std::nullopt;
  return e;
}

std::optional<Trace> load_trace(std::istream& in, std::string& error) {
  Trace t;
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  bool have_footer = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Value o;
    std::string scan_error;
    if (!flatjson::parse(line, o, scan_error)) {
      error = "line " + std::to_string(line_no) + ": " + scan_error;
      return std::nullopt;
    }
    if (const Value* type = field(o, "type")) {
      if (type->text == "trace") {
        if (have_header) {
          error = "line " + std::to_string(line_no) + ": duplicate header";
          return std::nullopt;
        }
        if (!parse_header(o, t.header, error)) {
          error = "line " + std::to_string(line_no) + ": " + error;
          return std::nullopt;
        }
        have_header = true;
        continue;
      }
      if (type->text == "end") {
        std::int64_t count = 0;
        if (!get_i64(o, "events", count, error)) {
          error = "line " + std::to_string(line_no) + ": " + error;
          return std::nullopt;
        }
        if (count != static_cast<std::int64_t>(t.events.size())) {
          error = "trace is truncated: footer declares " +
                  std::to_string(count) + " events, file has " +
                  std::to_string(t.events.size());
          return std::nullopt;
        }
        have_footer = true;
        continue;
      }
      error = "line " + std::to_string(line_no) + ": unknown record type '" +
              type->text + "'";
      return std::nullopt;
    }
    if (!have_header) {
      error = "line " + std::to_string(line_no) +
              ": event record before the trace header";
      return std::nullopt;
    }
    TraceEvent e;
    if (!parse_event(o, e, error)) {
      error = "line " + std::to_string(line_no) + ": " + error;
      return std::nullopt;
    }
    t.events.push_back(e);
  }
  if (!have_header) {
    error = "not a trace: no header line";
    return std::nullopt;
  }
  if (!have_footer) {
    error = "trace is truncated: no end-of-trace footer";
    return std::nullopt;
  }
  return t;
}

std::optional<Trace> load_trace_file(const std::string& path,
                                     std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return load_trace(in, error);
}

}  // namespace lifeguard::check
