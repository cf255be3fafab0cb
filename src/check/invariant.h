// Live protocol invariant checking over the merged event stream.
//
// An Invariant observes every TraceEvent as the run executes and may also
// inspect final simulator state in at_end(). The built-in suite encodes the
// SWIM/Lifeguard safety and liveness properties the paper's claims rest on:
//
//   incarnation-monotonic   a reporter's view of a member's incarnation
//                           never decreases except across a dead -> rejoin
//   refute-before-resurrect alive-after-failed requires a strictly higher
//                           incarnation (or an actual process restart)
//   suspicion-bounds        a local suspicion's lifetime stays inside the
//                           [alpha-floor, beta-scaled max] window (§IV-B)
//   legal-transitions       per-reporter member state machine follows the
//                           SWIM transition graph
//   convergence             once faults stop long enough, every running
//                           node's active view equals the live member set
//   retransmit-bound        no gossip update is piggybacked more than
//                           lambda * ceil(log10(n+1)) times (§III-A)
//   no-send-from-crashed    a crashed process routes no datagrams
//   partition-containment   no datagram crosses an active partition
//
// Checker owns a Spec-selected set of invariants, feeds them the stream
// (it is itself a TraceSink — wire it with check::EventTap), tracks the
// shared facts several invariants need (restart times, crash flags, last
// disturbance), and folds violations into a RunReport.
//
// Determinism: invariants only read the stream and the simulator; they draw
// no randomness and mutate nothing, so enabling checks never changes a
// (scenario, seed) run's results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/events.h"
#include "check/spec.h"
#include "swim/config.h"

namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::check {

class Checker;

/// What an invariant may look at, beyond the event itself.
struct CheckContext {
  Checker* checker = nullptr;  ///< violation sink
  const sim::Simulator* sim = nullptr;  ///< live cluster (null in stream-only use)
  const swim::Config* config = nullptr;
  int cluster_size = 0;
  const Spec* spec = nullptr;
  /// Per-node time of the most recent restart ({-1} when never restarted).
  const std::vector<TimePoint>* last_restart = nullptr;
  /// Per-node crashed-right-now flags (tracked from the stream).
  const std::vector<bool>* crashed = nullptr;
  /// Most recent fault/block/crash/restart activity ({0} when none).
  TimePoint last_disturbance{};
  bool disturbed = false;
  /// Virtual time the run ended at (valid in at_end only).
  TimePoint run_end{};
};

class Invariant {
 public:
  explicit Invariant(std::string name) : name_(std::move(name)) {}
  virtual ~Invariant() = default;

  const std::string& name() const { return name_; }
  /// Called for every stream event (kDatagram included only when
  /// wants_datagrams() is true).
  virtual void on_event(const TraceEvent& e, const CheckContext& ctx) = 0;
  /// Called once after the run completes.
  virtual void at_end(const CheckContext& ctx) { (void)ctx; }
  virtual bool wants_datagrams() const { return false; }

 protected:
  /// Record a violation of this invariant (forwards to the Checker).
  void violate(const CheckContext& ctx, TimePoint at, int node, int member,
               std::string message) const;

 private:
  std::string name_;
};

/// Instantiate the invariants a Spec selects (empty list = full suite).
/// Throws std::invalid_argument on an unknown name — callers that accept
/// user input should run Spec::validate() first.
std::vector<std::unique_ptr<Invariant>> make_invariants(const Spec& spec);

/// Evaluates a set of invariants over the merged stream.
class Checker : public TraceSink {
 public:
  /// `config` / `cluster_size` describe the run under check (bounds and
  /// state-space sizing). The Spec must have passed validate(). `membership`
  /// is the run's backend spec (harness::Scenario::membership): SWIM-specific
  /// invariants (incarnation-monotonic, refute-before-resurrect,
  /// suspicion-bounds, retransmit-bound) are auto-disabled — silently, even
  /// when the Spec names them — for non-swim backends; generic invariants
  /// run everywhere.
  Checker(const Spec& spec, const swim::Config& config, int cluster_size,
          const std::string& membership = "swim");

  /// Attach the live simulator (enables the state-inspecting checks);
  /// optional for pure stream scans.
  void bind(const sim::Simulator* sim) { sim_ = sim; }

  void on_trace_event(const TraceEvent& e) override;
  bool wants_datagrams() const override { return wants_datagrams_; }

  /// Run the end-of-run (liveness) checks; call after the engine's final
  /// run_until. Idempotent per run.
  void finish(TimePoint run_end);

  RunReport report() const;
  const std::vector<Violation>& violations() const { return violations_; }
  std::int64_t total_violations() const { return total_violations_; }
  /// Time of the latest fault/block/crash/restart record seen ({0} when
  /// none) — the start of the quiet tail the convergence check measures.
  TimePoint last_disturbance() const { return last_disturbance_; }

  /// Invariant-facing sink (use Invariant::violate from implementations).
  void add_violation(const std::string& invariant, TimePoint at, int node,
                     int member, std::string message);

 private:
  CheckContext context();

  Spec spec_;
  swim::Config config_;
  int cluster_size_;
  const sim::Simulator* sim_ = nullptr;
  std::vector<std::unique_ptr<Invariant>> invariants_;
  bool wants_datagrams_ = false;

  std::vector<TimePoint> last_restart_;
  std::vector<bool> crashed_;
  TimePoint last_disturbance_{};
  bool disturbed_ = false;
  bool finished_ = false;

  std::int64_t events_seen_ = 0;
  std::int64_t total_violations_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace lifeguard::check
