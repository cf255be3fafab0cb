// live_node — one live-tier cluster member, run as its own OS process.
//
// Spawned by live::NodeProcess (never by hand, though it works): hosts one
// swim::Node on a net::UdpRuntime with a NetemFilter installed, announces
// readiness with HELLO on the control channel (fd --control-fd), then obeys
// the parent's line commands (START / FAULT / STATS / STOP — see
// src/live/control.h) while streaming every membership event it observes as
// EV lines and a TICK watermark every --tick-ms.
//
// Threading: the protocol runs on the runtime's loop thread (events and
// TICKs are written from there); the main thread blocks on the control
// channel and posts each command onto the loop. LineWriter serializes the
// two writers. EOF on the control channel means the parent is gone — exit
// immediately (PR_SET_PDEATHSIG already covers the SIGKILL case).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "check/events.h"
#include "check/trace.h"
#include "harness/scenariofile.h"
#include "live/control.h"
#include "net/fault_filter.h"
#include "net/udp_runtime.h"
#include "obs/catalog.h"
#include "swim/node.h"

using namespace lifeguard;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --index N --port P --seed S --epoch-ns NS "
               "--control-fd FD --tick-ms MS [--metrics-interval-us US] "
               "--config JSON\n",
               argv0);
  return 2;
}

/// The node's observer: every membership transition it observes goes up as
/// an EV line about node --index, straight off the loop thread.
struct EventForwarder final : membership::Observer {
  EventForwarder(int i, live::LineWriter& w) : index(i), writer(w) {}
  int index;
  live::LineWriter& writer;
  void on_member_event(const swim::MemberEvent& me) override {
    writer.write_line(live::event_msg_line(check::trace_event_of(me, index)));
  }
};

/// Loop-thread telemetry self-sampler: the per-node counterpart of the sim
/// tier's obs::Sampler. Emits one kMetricSample EV line per catalog metric
/// each interval, node = this worker's index, so the parent's merge carries
/// the same series schema across backends (sim-only metrics are skipped).
class SelfSampler {
 public:
  SelfSampler(int index, swim::Node& node, live::LineWriter& writer)
      : index_(index), node_(node), writer_(writer) {}

  void sample(TimePoint now) {
    const double dt = prev_at_.us > 0 ? (now - prev_at_).seconds() : 0.0;
    auto rate = [dt](double cur, double& prev) {
      const double d = cur - prev;
      prev = cur;
      return (dt > 0 && d > 0) ? d / dt : 0.0;
    };

    const double suspect = node_.suspect_count();
    const double dead = node_.dead_count();
    const Metrics& m = node_.metrics();
    double rtt_count = 0, rtt_sum = 0;
    if (const auto it = m.histograms().find("probe.rtt_us");
        it != m.histograms().end()) {
      rtt_count = static_cast<double>(it->second.count());
      rtt_sum = it->second.sum();
    }
    const double d_count = rtt_count - prev_rtt_count_;
    const double d_sum = rtt_sum - prev_rtt_sum_;
    prev_rtt_count_ = rtt_count;
    prev_rtt_sum_ = rtt_sum;

    const double lhm = static_cast<double>(node_.local_health().score());
    const double pending = static_cast<double>(node_.pending_broadcasts());
    const double msgs =
        static_cast<double>(m.counter_value("net.msgs_sent"));

    emit(now, obs::Metric::kMembersActive,
         static_cast<double>(node_.members().num_active()));
    emit(now, obs::Metric::kMembersSuspect, suspect);
    emit(now, obs::Metric::kMembersDead, dead);
    emit(now, obs::Metric::kLhmMean, lhm);
    emit(now, obs::Metric::kLhmMax, lhm);
    emit(now, obs::Metric::kProbeRttMeanUs, d_count > 0 ? d_sum / d_count : 0);
    emit(now, obs::Metric::kProbeNackRate,
         rate(static_cast<double>(m.counter_value("probe.nack_received")),
              prev_nacks_));
    emit(now, obs::Metric::kProbeFailRate,
         rate(static_cast<double>(m.counter_value("probe.failed")),
              prev_fails_));
    emit(now, obs::Metric::kNetMsgsRate, rate(msgs, prev_msgs_));
    emit(now, obs::Metric::kNetMsgsTotal, msgs);
    emit(now, obs::Metric::kNetBytesTotal,
         static_cast<double>(m.counter_value("net.bytes_sent")));
    emit(now, obs::Metric::kGossipPendingMean, pending);
    emit(now, obs::Metric::kGossipPendingMax, pending);
    emit(now, obs::Metric::kGossipTransmitsRate,
         rate(static_cast<double>(node_.broadcasts().total_transmits()),
              prev_transmits_));
    prev_at_ = now;
  }

 private:
  void emit(TimePoint at, obs::Metric metric, double value) {
    check::TraceEvent e;
    e.at = at;
    e.kind = check::TraceEventKind::kMetricSample;
    e.node = index_;
    e.peer = static_cast<int>(metric);
    e.value = value;
    writer_.write_line(live::event_msg_line(e));
  }

  int index_;
  swim::Node& node_;
  live::LineWriter& writer_;
  TimePoint prev_at_{};
  double prev_nacks_ = 0, prev_fails_ = 0, prev_msgs_ = 0;
  double prev_transmits_ = 0, prev_rtt_count_ = 0, prev_rtt_sum_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int index = -1;
  long port = 0;
  unsigned long long seed = 1;
  long long epoch_ns = 0;
  int control_fd = -1;
  long tick_ms = 200;
  long long metrics_interval_us = 0;
  std::string config_spec;

  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--index") index = std::atoi(val);
    else if (flag == "--port") port = std::atol(val);
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--epoch-ns") epoch_ns = std::atoll(val);
    else if (flag == "--control-fd") control_fd = std::atoi(val);
    else if (flag == "--tick-ms") tick_ms = std::atol(val);
    else if (flag == "--metrics-interval-us") metrics_interval_us = std::atoll(val);
    else if (flag == "--config") config_spec = val;
    else return usage(argv[0]);
  }
  if (index < 0 || control_fd < 0 || port < 0 || port > 65535 ||
      tick_ms <= 0) {
    return usage(argv[0]);
  }

  std::string error;
  const auto config =
      harness::ScenarioFile::config_from_json(config_spec, error);
  if (!config) {
    std::fprintf(stderr, "live_node: --config: %s\n", error.c_str());
    return 2;
  }

  // A dying parent closes the socketpair; treat the resulting EPIPE as EOF,
  // not a fatal signal.
  ::signal(SIGPIPE, SIG_IGN);

  net::UdpRuntime rt(static_cast<std::uint16_t>(port), seed);
  rt.set_epoch_ns(epoch_ns);
  net::NetemFilter filter;
  rt.set_fault_filter(&filter);

  live::LineWriter writer(control_fd);
  EventForwarder forwarder(index, writer);
  const std::string name = "node-" + std::to_string(index);
  swim::Node node(name, rt.local_address(), *config, rt);
  node.set_observer(&forwarder);

  rt.start(&node);

  // TICK watermark: a periodic promise that nothing earlier will be
  // emitted, so the parent's merge advances even when this node is quiet.
  const Duration tick{tick_ms * 1000};
  std::function<void()> tick_fn;
  tick_fn = [&] {
    writer.write_line(live::tick_line(rt.now()));
    rt.schedule(tick, [&] { tick_fn(); });
  };
  rt.post([&] { rt.schedule(tick, [&] { tick_fn(); }); });

  // Telemetry self-sampling, same loop-thread pattern as the TICK watermark.
  // Samples are EV lines, so they ride the merged trace like any other event
  // (and the parent's TraceRecorder captures them for offline analysis).
  SelfSampler sampler(index, node, writer);
  std::function<void()> sample_fn;
  if (metrics_interval_us > 0) {
    const Duration metrics_interval{metrics_interval_us};
    sample_fn = [&, metrics_interval] {
      sampler.sample(rt.now());
      rt.schedule(metrics_interval, [&] { sample_fn(); });
    };
    rt.post([&, metrics_interval] {
      rt.schedule(metrics_interval, [&] { sample_fn(); });
    });
  }

  writer.write_line(
      live::hello_line(index, ::getpid(), rt.local_address().port));

  std::atomic<bool> stopping{false};

  // A join is one fire-and-forget push-pull, and a node drops every packet
  // until its own START runs — so a joiner that races the seed's START (real
  // schedulers allow it) would stay isolated forever: nobody learns it, and
  // its anti-entropy has no members to pick from. Re-send the join until a
  // second member shows up. Loop-thread state, like tick_fn.
  std::optional<Address> join_seed;
  std::function<void()> join_fn;
  join_fn = [&] {
    if (stopping.load() || !join_seed) return;
    if (node.members().num_active() > 1) return;
    node.join({*join_seed});
    rt.schedule(msec(500), [&] { join_fn(); });
  };

  // Main thread: the blocking control-command loop.
  live::LineBuffer lines;
  char buf[8192];
  while (true) {
    const ssize_t n = ::read(control_fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // parent gone
    lines.append(buf, static_cast<std::size_t>(n));
    while (auto line = lines.next_line()) {
      const auto cmd = live::parse_command(*line, error);
      if (!cmd) {
        std::fprintf(stderr, "live_node: %s\n", error.c_str());
        continue;
      }
      switch (cmd->kind) {
        case live::Command::Kind::kStart: {
          const std::optional<Address> join = cmd->join;
          rt.post([&, join] {
            node.start();
            if (join) {
              join_seed = *join;
              join_fn();
            }
          });
          break;
        }
        case live::Command::Kind::kFaultAdd: {
          const int token = cmd->token;
          const fault::LinkFault overlay = cmd->overlay;
          rt.post([&filter, token, overlay] {
            filter.add_overlay(token, overlay);
          });
          break;
        }
        case live::Command::Kind::kFaultPart: {
          const int token = cmd->token;
          std::vector<Address> peers = cmd->peers;
          rt.post([&filter, token, peers = std::move(peers)]() mutable {
            filter.add_block_set(token, std::move(peers));
          });
          break;
        }
        case live::Command::Kind::kFaultDel: {
          const int token = cmd->token;
          rt.post([&filter, token] { filter.remove(token); });
          break;
        }
        case live::Command::Kind::kStats:
          rt.post([&node, &writer] {
            live::WorkerStats s;
            const Metrics& m = node.metrics();
            s.msgs_sent = static_cast<std::uint64_t>(
                m.counter_value("net.msgs_sent"));
            s.bytes_sent = static_cast<std::uint64_t>(
                m.counter_value("net.bytes_sent"));
            s.active = node.members().num_active();
            writer.write_line(live::stats_line(s));
          });
          break;
        case live::Command::Kind::kStop:
          stopping.store(true);
          break;
      }
      if (stopping.load()) break;
    }
    if (stopping.load()) break;
  }

  rt.post([&node] { node.stop(); });
  rt.shutdown();
  if (stopping.load()) writer.write_line(live::bye_line());
  return 0;
}
