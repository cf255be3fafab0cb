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
#include "obs/sampler.h"
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
  EventForwarder(int i, const Runtime& r, live::LineWriter& w)
      : index(i), rt(r), writer(w) {}
  int index;
  const Runtime& rt;
  live::LineWriter& writer;
  void on_event(const membership::Event& e) override {
    if (!check::is_member_event(e.kind)) return;
    check::TraceEvent t = check::trace_event_of(e, index);
    t.at = rt.now();
    writer.write_line(live::event_msg_line(t));
  }
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
  EventForwarder forwarder(index, rt, writer);
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

  // Telemetry: an obs::Sampler over this node, ticking on the loop
  // thread like the TICK watermark. Samples are EV lines, so they ride the
  // merged trace like any other event (and the parent's TraceRecorder
  // captures them for offline analysis).
  std::optional<obs::Sampler> sampler;
  if (metrics_interval_us > 0) {
    sampler.emplace(node, index, rt, Duration{metrics_interval_us},
                    [&writer](const check::TraceEvent& e) {
                      writer.write_line(live::event_msg_line(e));
                    });
    rt.post([&] { sampler->start(); });
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
