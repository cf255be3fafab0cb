#include "live/runner.h"

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "check/invariant.h"
#include "common/rng.h"
#include "fault/schedule.h"
#include "harness/accounting.h"
#include "harness/scenariofile.h"
#include "live/control.h"
#include "live/merge.h"
#include "live/process.h"
#include "membership/backend.h"
#include "net/udp_runtime.h"
#include "obs/sampler.h"

namespace lifeguard::live {

namespace {

/// Live runs cap cluster size well below the sim's 4096: each member is a
/// real process with a real socket, and loopback scheduling noise past this
/// size drowns the protocol timings the checks reason about.
constexpr int kMaxLiveCluster = 128;

/// Reserved netem token for the runner-managed partition block sets (fault
/// timeline entry tokens are small indices; this cannot collide).
constexpr int kPartitionToken = 1 << 20;

/// How long one worker may take to report HELLO after fork/exec.
constexpr Duration kHandshakeTimeout = sec(10);

/// One cluster member slot: the (current) process behind index i, its
/// merger stream, and end-of-run stats. Respawns replace `proc` and open a
/// fresh stream; the old stream closes at its EOF.
struct Slot {
  std::unique_ptr<NodeProcess> proc;
  int stream = -1;
  bool eof = true;  ///< control channel drained to EOF (or never opened)
  WorkerStats stats{};
  bool have_stats = false;
};

std::string executable_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return !path.empty() && ::stat(path.c_str(), &st) == 0 &&
         S_ISREG(st.st_mode);
}

bool spec_runs_invariant(const check::Spec& spec, std::string_view name) {
  if (spec.invariants.empty()) return true;
  return std::find(spec.invariants.begin(), spec.invariants.end(), name) !=
         spec.invariants.end();
}

/// Everything one run owns, so teardown is a single place: workers are
/// SIGKILLed and reaped whether the run finishes, throws, or times out.
class LiveRun {
 public:
  LiveRun(const harness::Scenario& s, const harness::RunOptions& opts,
          const std::vector<check::TraceSink*>& sinks)
      : s_(s), opts_(opts), plan_rng_(s.seed ^ 0x11fe9ad5u),
        accounting_(s.cluster_size) {
    plan_ = fault::lower(s.timeline, s.cluster_size, s.run_length, plan_rng_);
    sinks_ = sinks;
    if (s.checks.enabled) {
      checker_.emplace(s.checks, s.config, s.cluster_size);
      sinks_.push_back(&*checker_);
    }
    sinks_.push_back(&accounting_);
    if (s.metrics_interval > Duration{0}) sinks_.push_back(&series_);
    merger_.emplace(sinks_);
    seed_state_ = s.seed;
  }

  ~LiveRun() { teardown(); }

  harness::RunResult execute();

 private:
  TimePoint now_rt() const {
    return TimePoint{(net::steady_now_ns() - epoch_ns_) / 1000};
  }

  void fail(const std::string& what) {
    teardown();
    throw std::runtime_error("live run failed: " + what);
  }

  void teardown() {
    for (auto& slot : slots_) {
      if (slot.proc) slot.proc->kill_and_reap();
    }
  }

  void push_parent(check::TraceEventKind kind, int node, int peer = -1) {
    check::TraceEvent e;
    e.at = now_rt();
    e.kind = kind;
    e.node = node;
    e.peer = peer;
    merger_->push(parent_stream_, e);
  }

  void spawn_slot(int index, std::uint16_t port);
  void start_worker(int index);
  void resend_node_faults(int index);
  void recompute_partitions();
  /// The process currently behind node `index` (nullptr while none is).
  NodeProcess* proc(int index) {
    return slots_[static_cast<std::size_t>(index)].proc.get();
  }
  void respawn(int index);
  void execute_action(const fault::Action& a);
  void pump(Duration max_wait);
  void drain_worker(int index);
  void collect_stats();
  void stop_workers();
  void check_deadline();
  void supplement_convergence(TimePoint run_end);

  const harness::Scenario& s_;
  const harness::RunOptions& opts_;
  Rng plan_rng_;
  fault::Schedule plan_;
  harness::FailureAccounting accounting_;
  obs::SeriesCollector series_;
  std::optional<check::Checker> checker_;
  std::vector<check::TraceSink*> sinks_;
  std::optional<TraceMerger> merger_;
  int parent_stream_ = -1;

  std::int64_t epoch_ns_ = 0;
  std::int64_t deadline_ns_ = 0;
  std::uint64_t seed_state_ = 1;
  std::string binary_;
  std::vector<Slot> slots_;

  /// Active partition claims and per-node active netem overlays, so a
  /// respawned worker can be brought back up to the current fault state.
  fault::PartitionClaims partitions_;
  std::map<int, std::map<int, fault::LinkFault>> active_netem_;
};

void LiveRun::spawn_slot(int index, std::uint16_t port) {
  NodeProcess::Options po;
  po.index = index;
  po.udp_port = port;
  po.seed = splitmix64(seed_state_);
  po.epoch_ns = epoch_ns_;
  po.config_spec =
      "{" + harness::ScenarioFile::config_members(s_.config) + "}";
  po.binary = binary_;
  po.metrics_interval = s_.metrics_interval;
  if (!opts_.log_dir.empty()) {
    po.log_path = opts_.log_dir + "/node-" + std::to_string(index) + ".log";
  }
  auto proc = std::make_unique<NodeProcess>();
  std::string error;
  if (!proc->spawn(po, error)) fail(error);
  if (!proc->handshake(kHandshakeTimeout, error)) fail(error);
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  slot.proc = std::move(proc);
  slot.stream = merger_->open_stream();
  slot.eof = false;
}

void LiveRun::start_worker(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  const std::optional<Address> join =
      index == 0 ? std::nullopt
                 : std::optional<Address>(slots_[0].proc->address());
  slot.proc->send_line(start_line(join));
}

void LiveRun::resend_node_faults(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (const auto it = active_netem_.find(index); it != active_netem_.end()) {
    for (const auto& [token, overlay] : it->second) {
      slot.proc->send_line(fault_add_line(token, overlay));
    }
  }
  // Partition block sets are pushed by recompute_partitions() below.
}

void LiveRun::recompute_partitions() {
  for (int i = 0; i < s_.cluster_size; ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (!slot.proc || !slot.proc->running()) continue;
    const int my_group = partitions_.group_of(i);
    std::vector<Address> blocked;
    for (int j = 0; j < s_.cluster_size; ++j) {
      if (j == i) continue;
      const Slot& other = slots_[static_cast<std::size_t>(j)];
      if (!other.proc) continue;
      if (partitions_.group_of(j) != my_group) {
        blocked.push_back(other.proc->address());
      }
    }
    slot.proc->send_line(fault_del_line(kPartitionToken));
    if (!blocked.empty()) {
      slot.proc->send_line(fault_part_line(kPartitionToken, blocked));
    }
  }
}

void LiveRun::respawn(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  const std::uint16_t port = slot.proc ? slot.proc->udp_port() : 0;
  if (slot.proc) {
    drain_worker(index);
    slot.proc->kill_and_reap();
    if (!slot.eof) {
      merger_->close_stream(slot.stream);
      slot.eof = true;
    }
  }
  push_parent(check::TraceEventKind::kRestart, index);
  spawn_slot(index, port);
  resend_node_faults(index);
  recompute_partitions();
  start_worker(index);
}

void LiveRun::execute_action(const fault::Action& a) {
  using fault::ActionKind;
  // Netem overlays are keyed by the entry index; kPartitionToken sits far
  // above any.
  switch (a.kind) {
    case ActionKind::kFaultStart:
      push_parent(check::TraceEventKind::kFaultStart, -1, a.entry);
      break;
    case ActionKind::kFaultEnd:
      push_parent(check::TraceEventKind::kFaultEnd, -1, a.entry);
      break;
    case ActionKind::kBlock:
      for (int v : a.nodes) {
        push_parent(check::TraceEventKind::kBlock, v);
        if (NodeProcess* p = proc(v)) p->sigstop();
      }
      break;
    case ActionKind::kUnblock:
      for (int v : a.nodes) {
        if (NodeProcess* p = proc(v)) p->sigcont();
        push_parent(check::TraceEventKind::kUnblock, v);
      }
      break;
    case ActionKind::kCrash:
      for (int v : a.nodes) {
        push_parent(check::TraceEventKind::kCrash, v);
        // SIGKILL only; the control stream is drained to EOF so everything
        // the victim emitted before dying still merges (then the stream
        // closes and stops bounding the watermark).
        if (NodeProcess* p = proc(v)) p->kill_hard();
      }
      break;
    case ActionKind::kRestart:
      for (int v : a.nodes) respawn(v);
      break;
    case ActionKind::kPartitionAdd:
    case ActionKind::kPartitionDel:
      partitions_.apply(a);
      recompute_partitions();
      break;
    case ActionKind::kLinkFaultAdd: {
      const fault::LinkFault overlay = fault::link_fault_of(
          s_.timeline.entries()[static_cast<std::size_t>(a.entry)].fault);
      for (int v : a.nodes) {
        active_netem_[v][a.entry] = overlay;
        if (NodeProcess* p = proc(v)) {
          p->send_line(fault_add_line(a.entry, overlay));
        }
      }
      break;
    }
    case ActionKind::kLinkFaultDel:
      for (int v : a.nodes) {
        active_netem_[v].erase(a.entry);
        if (NodeProcess* p = proc(v)) p->send_line(fault_del_line(a.entry));
      }
      break;
  }
}

/// Read whatever is buffered on `index`'s control channel right now (used
/// before a respawn replaces the process, so no emitted event is lost).
void LiveRun::drain_worker(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (!slot.proc || slot.eof) return;
  char buf[4096];
  while (true) {
    pollfd pfd{slot.proc->control_fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 0) <= 0) break;
    const ssize_t n = ::read(slot.proc->control_fd(), buf, sizeof(buf));
    if (n <= 0) break;
    slot.proc->lines().append(buf, static_cast<std::size_t>(n));
  }
  std::string error;
  while (auto line = slot.proc->lines().next_line()) {
    if (const auto msg = parse_worker_msg(*line, error)) {
      if (msg->kind == WorkerMsg::Kind::kEvent) {
        merger_->push(slot.stream, msg->event);
      } else if (msg->kind == WorkerMsg::Kind::kTick) {
        merger_->advance(slot.stream, msg->tick);
      }
    }
  }
}

/// One poll round over every open control channel: feed line buffers, push
/// events/ticks into the merger, record stats, close drained streams.
void LiveRun::pump(Duration max_wait) {
  std::vector<pollfd> fds;
  std::vector<int> fd_slot;
  for (int i = 0; i < s_.cluster_size; ++i) {
    const Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (!slot.proc || slot.eof || slot.proc->control_fd() < 0) continue;
    fds.push_back({slot.proc->control_fd(), POLLIN, 0});
    fd_slot.push_back(i);
  }
  if (fds.empty()) {
    if (max_wait > Duration{0}) {
      ::usleep(static_cast<useconds_t>(
          std::min<std::int64_t>(max_wait.us, 100000)));
    }
    return;
  }
  const int timeout_ms = static_cast<int>(
      std::clamp<std::int64_t>((max_wait.us + 999) / 1000, 0, 100));
  const int rv = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rv <= 0) return;
  char buf[8192];
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Slot& slot = slots_[static_cast<std::size_t>(fd_slot[k])];
    bool closed = false;
    while (true) {
      const ssize_t n = ::read(slot.proc->control_fd(), buf, sizeof(buf));
      if (n > 0) {
        slot.proc->lines().append(buf, static_cast<std::size_t>(n));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      closed = true;  // EOF or hard error: the worker is gone
      break;
    }
    std::string error;
    while (auto line = slot.proc->lines().next_line()) {
      const auto msg = parse_worker_msg(*line, error);
      if (!msg) continue;  // tolerate garbage; the worker's log has details
      switch (msg->kind) {
        case WorkerMsg::Kind::kEvent:
          merger_->push(slot.stream, msg->event);
          break;
        case WorkerMsg::Kind::kTick:
          merger_->advance(slot.stream, msg->tick);
          break;
        case WorkerMsg::Kind::kStats:
          slot.stats = msg->stats;
          slot.have_stats = true;
          break;
        case WorkerMsg::Kind::kHello:
        case WorkerMsg::Kind::kBye:
          break;
      }
    }
    if (closed) {
      merger_->close_stream(slot.stream);
      slot.eof = true;
      slot.proc->try_reap();
    }
  }
}

void LiveRun::check_deadline() {
  if (net::steady_now_ns() < deadline_ns_) return;
  teardown();
  throw TimeoutError("live run exceeded its wall-clock ceiling (" +
                     std::to_string((deadline_ns_ - epoch_ns_) / 1000000000) +
                     " s) — workers torn down");
}

void LiveRun::collect_stats() {
  for (int i = 0; i < s_.cluster_size; ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (slot.proc && slot.proc->running() && !slot.eof) {
      slot.proc->send_line(stats_request_line());
    }
  }
  const std::int64_t wait_until = net::steady_now_ns() + 3'000'000'000;
  while (net::steady_now_ns() < wait_until) {
    bool missing = false;
    for (int i = 0; i < s_.cluster_size; ++i) {
      const Slot& slot = slots_[static_cast<std::size_t>(i)];
      if (slot.proc && !slot.eof && !slot.have_stats) missing = true;
    }
    if (!missing) break;
    pump(msec(50));
  }
}

void LiveRun::stop_workers() {
  for (auto& slot : slots_) {
    if (slot.proc && slot.proc->running() && !slot.eof) {
      slot.proc->send_line(stop_line());
    }
  }
  // Bounded drain: workers answer BYE and exit; stragglers get SIGKILL.
  const std::int64_t wait_until = net::steady_now_ns() + 2'000'000'000;
  while (net::steady_now_ns() < wait_until) {
    bool any_open = false;
    for (const auto& slot : slots_) {
      if (slot.proc && !slot.eof) any_open = true;
    }
    if (!any_open) break;
    pump(msec(50));
  }
  teardown();
  for (auto& slot : slots_) {
    if (slot.proc && !slot.eof) {
      merger_->close_stream(slot.stream);
      slot.eof = true;
    }
  }
}

void LiveRun::supplement_convergence(TimePoint run_end) {
  if (!checker_ || !spec_runs_invariant(s_.checks, "convergence")) return;
  // The stream-only Checker cannot inspect membership tables the way the
  // sim-bound convergence invariant does, so the live tier asserts the same
  // property from the workers' final self-reports: after a quiet tail of at
  // least convergence_settle, every surviving member must see the whole
  // cluster alive. The merger has flushed, so the checker has seen every
  // disturbance the parent pushed.
  if (run_end - checker_->last_disturbance() < s_.checks.convergence_settle) {
    return;
  }
  for (int i = 0; i < s_.cluster_size; ++i) {
    const Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (!slot.have_stats) continue;
    if (slot.stats.active != s_.cluster_size) {
      checker_->add_violation(
          "convergence", run_end, i, -1,
          "node-" + std::to_string(i) + " sees " +
              std::to_string(slot.stats.active) + " active members, expected " +
              std::to_string(s_.cluster_size) + " after a settled tail");
    }
  }
}

harness::RunResult LiveRun::execute() {
  binary_ = find_live_node_binary();
  if (binary_.empty()) {
    fail("live_node worker binary not found (searched $LIFEGUARD_LIVE_NODE, "
         "next to the current executable, and ./live_node); build the "
         "live_node target or set $LIFEGUARD_LIVE_NODE to its path");
  }
  if (!opts_.log_dir.empty()) {
    ::mkdir(opts_.log_dir.c_str(), 0755);
  }

  epoch_ns_ = net::steady_now_ns();
  const Duration ceiling =
      opts_.timeout > Duration{0}
          ? opts_.timeout
          : s_.quiesce + plan_.total_run + kHandshakeTimeout + sec(30);
  deadline_ns_ = epoch_ns_ + ceiling.us * 1000;

  parent_stream_ = merger_->open_stream();
  slots_.resize(static_cast<std::size_t>(s_.cluster_size));
  for (int i = 0; i < s_.cluster_size; ++i) spawn_slot(i, 0);

  // Everyone is up; node 0 seeds, the rest join through it.
  for (int i = 0; i < s_.cluster_size; ++i) start_worker(i);
  const TimePoint t_start = now_rt();
  const TimePoint t_inject = t_start + s_.quiesce;
  const TimePoint t_end = t_inject + plan_.total_run;
  accounting_.begin(t_inject, plan_.victims);

  std::size_t next_action = 0;
  while (true) {
    check_deadline();
    const TimePoint now = now_rt();
    while (next_action < plan_.actions.size() &&
           t_inject + plan_.actions[next_action].at <= now) {
      execute_action(plan_.actions[next_action]);
      ++next_action;
    }
    merger_->advance(parent_stream_, now_rt());
    if (now >= t_end && next_action >= plan_.actions.size()) break;
    TimePoint next_wake = t_end;
    if (next_action < plan_.actions.size()) {
      next_wake = std::min(next_wake,
                           t_inject + plan_.actions[next_action].at);
    }
    pump(next_wake - now);
  }

  collect_stats();
  stop_workers();
  merger_->finish();

  const TimePoint run_end = now_rt();
  harness::RunResult out;
  out.scenario_name = s_.name;
  out.cluster_size = s_.cluster_size;
  out.victims = plan_.victims;
  accounting_.fill(out);
  for (const auto& slot : slots_) {
    if (!slot.have_stats) continue;
    out.msgs_sent += static_cast<std::int64_t>(slot.stats.msgs_sent);
    out.bytes_sent += static_cast<std::int64_t>(slot.stats.bytes_sent);
  }
  out.metrics.counter("net.msgs_sent").add(out.msgs_sent);
  out.metrics.counter("net.bytes_sent").add(out.bytes_sent);
  out.series = series_.take();
  if (checker_) {
    supplement_convergence(run_end);
    checker_->finish(run_end);
    out.checks = checker_->report();
  }
  return out;
}

}  // namespace

std::string find_live_node_binary() {
  if (const char* env = std::getenv("LIFEGUARD_LIVE_NODE");
      env != nullptr && file_exists(env)) {
    return env;
  }
  if (const std::string dir = executable_dir(); !dir.empty()) {
    const std::string candidate = dir + "/live_node";
    if (file_exists(candidate)) return candidate;
  }
  if (file_exists("./live_node")) return "./live_node";
  return {};
}

harness::RunResult run(const harness::Scenario& s,
                       const harness::RunOptions& opts,
                       const std::vector<check::TraceSink*>& sinks) {
  auto errors = s.validate();
  if (membership::base_name(s.membership) != "swim") {
    errors.push_back("membership '" + s.membership +
                     "' is simulator-only — the live tier's worker processes "
                     "speak the swim protocol");
  }
  if (s.cluster_size > kMaxLiveCluster) {
    errors.push_back("cluster_size (" + std::to_string(s.cluster_size) +
                     ") exceeds the live tier's cap (" +
                     std::to_string(kMaxLiveCluster) +
                     " real processes); use the sim backend for larger runs");
  }
  if (!errors.empty()) throw harness::ScenarioError(std::move(errors));
  LiveRun run(s, opts, sinks);
  return run.execute();
}

}  // namespace lifeguard::live

// ---------------------------------------------------------------------------
// harness backend dispatch (declared in harness/scenario.h; defined here —
// the only translation unit that links both engines)

namespace lifeguard::harness {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSim:
      return "sim";
    case Backend::kLive:
      return "live";
  }
  return "?";
}

std::optional<Backend> backend_from_name(std::string_view name) {
  if (name == "sim") return Backend::kSim;
  if (name == "live") return Backend::kLive;
  return std::nullopt;
}

RunResult run(const Scenario& s, const RunOptions& opts,
              const std::vector<check::TraceSink*>& sinks) {
  if (opts.backend == Backend::kSim) return run(s, sinks);
  return live::run(s, opts, sinks);
}

}  // namespace lifeguard::harness
