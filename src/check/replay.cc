#include "check/replay.h"

#include <algorithm>

namespace lifeguard::check {

std::optional<harness::Scenario> scenario_from_header(const TraceHeader& h,
                                                      std::string& error) {
  const auto config = swim::Config::from_table1_name(h.config_name);
  if (!config) {
    error = "trace config '" + h.config_name +
            "' is not a known preset — a run with a hand-tuned Config can "
            "only be replayed via check::replay(Scenario, Trace)";
    return std::nullopt;
  }
  harness::Scenario s;
  s.name = h.scenario;
  s.summary = "replayed from trace";
  s.seed = h.seed;
  s.cluster_size = h.cluster_size;
  s.quiesce = h.quiesce;
  s.run_length = h.run_length;
  s.config = *config;
  s.config.suspicion_alpha = h.suspicion_alpha;
  s.config.suspicion_beta = h.suspicion_beta;
  s.config.suspicion_k = h.suspicion_k;
  s.network = h.network;
  s.msg_proc_cost = h.msg_proc_cost;
  s.recv_buffer_bytes = h.recv_buffer_bytes;
  const auto tl = timeline_from_specs(h.timeline, error);
  if (!tl) return std::nullopt;
  s.timeline = *tl;
  s.checks = h.checks;
  s.metrics_interval = h.metrics_interval;
  s.membership = h.membership;
  if (auto errors = s.validate(); !errors.empty()) {
    error = "trace header rebuilds an invalid scenario: " + errors.front();
    return std::nullopt;
  }
  return s;
}

ReplayResult replay(const harness::Scenario& s, const Trace& recorded) {
  ReplayResult out;
  // Datagram and probe-span records are off by default; re-record them iff
  // the recording has them, so the two streams are comparable.
  TraceRecorder recorder(s, recorded.has_datagrams(),
                         recorded.header.probe_spans);
  out.result = harness::run(s, {&recorder});
  out.trace = recorder.take();

  const std::vector<TraceEvent>& a = recorded.events;
  const std::vector<TraceEvent>& b = out.trace.events;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    out.divergence = "event " + std::to_string(i) + ": recorded {" +
                     a[i].describe() + "}, replayed {" + b[i].describe() + "}";
    return out;
  }
  if (a.size() != b.size()) {
    out.divergence = "recorded " + std::to_string(a.size()) +
                     " events but replay produced " + std::to_string(b.size());
    return out;
  }
  out.matches = true;
  return out;
}

std::optional<ReplayResult> replay_file(const std::string& path,
                                        std::string& error) {
  const auto trace = load_trace_file(path, error);
  if (!trace) return std::nullopt;
  const auto scenario = scenario_from_header(trace->header, error);
  if (!scenario) return std::nullopt;
  return replay(*scenario, *trace);
}

}  // namespace lifeguard::check
