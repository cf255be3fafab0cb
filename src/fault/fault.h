// Composable fault-injection value types (see DESIGN.md, "Fault layer").
//
// A `Fault` is one kind of badness with its parameters — the process-level
// kinds the paper's evaluation is built on (block/threshold, interval
// cycles, CPU-starvation stress, flapping, churn, partition) plus
// network-level primitives: asymmetric link loss, added latency/jitter,
// datagram duplication and reordering.
//
// A `VictimSelector` says *who* is afflicted: a uniform random draw (the
// paper's choice), explicit node indices, a percentage of the cluster, or a
// contiguous island.
//
// A `fault::Timeline` is an ordered list of phased entries — each a Fault, a
// VictimSelector, an onset offset `at` and an active `duration`. Entries may
// overlap freely ("partition during CPU exhaustion") or be sequenced
// ("churn after the heal"). Timelines are plain values: validate() returns
// one actionable message per defect, parse_timeline_entry() builds entries
// from `kind@AT:DUR,key=val` flag syntax, and summary() renders them for
// catalogs.
//
// fault/schedule.h lowers a Timeline into the time-sorted action list both
// backends execute: fault/injector.h on the simulator's event queue,
// live/runner.cc at wall-clock offsets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace lifeguard::fault {

// ---------------------------------------------------------------------------
// Fault

enum class FaultKind : std::uint8_t {
  // -- process-level (victims' protocol I/O or the process itself) --
  kBlock = 0,      ///< sends+receives blocked for the whole span (§V-D1)
  kIntervalBlock,  ///< lock-step blocked-for-D / open-for-I cycles (§V-D2)
  kStress,         ///< randomized CPU-starvation cycles (§II, Fig. 1)
  kFlapping,       ///< per-victim unsynchronized D/I cycles
  kChurn,          ///< victims crash, stay down, restart and rejoin in cycles
  kPartition,      ///< victims split into an island; re-merged at span end
  // -- network-level (victims' links; the rest of the fabric is untouched) --
  kLinkLoss,   ///< extra datagram loss on victims' links (asymmetric)
  kLatency,    ///< added one-way delay + jitter on victims' links
  kDuplicate,  ///< UDP datagrams to/from victims delivered twice
  kReorder,    ///< UDP datagrams randomly delayed past later traffic
};

const char* fault_kind_name(FaultKind k);
std::optional<FaultKind> fault_kind_from_name(std::string_view name);
/// True for the kinds that perturb links rather than processes.
bool is_network_fault(FaultKind k);

/// kStress span distributions: each victim cycles blocked for a span drawn
/// log-uniform from [block_min, block_max], then runs for one drawn
/// log-uniform from [run_min, run_max] — our model of the paper's Fig. 1
/// CPU exhaustion (stress -c 128 on one core: progress in short bursts).
struct StressParams {
  Duration block_min = sec(2);
  Duration block_max = sec(40);
  Duration run_min = msec(1);
  Duration run_max = msec(50);
};

/// One kind of badness plus its parameters. Which fields matter depends on
/// `kind`; the factories document each shape and are the intended way to
/// build one.
struct Fault {
  FaultKind kind = FaultKind::kBlock;

  /// kIntervalBlock/kFlapping: blocked span D per cycle. kChurn: downtime
  /// between crash and restart.
  Duration period{};
  /// kIntervalBlock/kFlapping: open window I per cycle. kChurn: uptime
  /// between restart and the next crash.
  Duration gap{};
  /// kStress: block/run span distributions.
  StressParams stress;

  /// kLinkLoss: drop probability for datagrams a victim *sends* / *receives*
  /// — asymmetric on purpose (a saturated uplink loses egress first).
  double egress_loss = 0.0;
  double ingress_loss = 0.0;
  /// kLatency: fixed added one-way delay plus uniform jitter in [0, jitter].
  Duration extra_latency{};
  Duration jitter{};
  /// kDuplicate/kReorder: per-datagram probability.
  double probability = 0.0;
  /// kReorder: an affected datagram is delayed a further uniform [0, spread].
  Duration spread{};

  static Fault block();
  static Fault interval_block(Duration d, Duration i);
  static Fault stressed(StressParams params = {});
  static Fault flapping(Duration d, Duration i);
  static Fault churn(Duration downtime, Duration uptime);
  static Fault partition();
  static Fault link_loss(double egress, double ingress);
  static Fault latency(Duration extra, Duration jitter = {});
  static Fault duplicate(double probability);
  static Fault reorder(double probability, Duration spread);
};

/// What a network-level Fault installs on each victim's links for its span:
/// one value for both backends (sim::Network in the simulator,
/// net::NetemFilter in a live worker). Several on one node combine
/// independently — loss/duplicate/reorder probabilities compose as
/// 1 - Π(1 - pᵢ), latencies add, the reorder spread takes the max — and each
/// backend keeps its own composition code (the simulator's Rng draw order
/// is part of every golden).
struct LinkFault {
  /// Extra drop probability for datagrams the node sends / receives.
  double egress_loss = 0.0;
  double ingress_loss = 0.0;
  /// Added one-way delay, plus uniform jitter in [0, jitter] per datagram.
  Duration extra_latency{};
  Duration jitter{};
  /// Probability a UDP datagram is delivered twice.
  double duplicate_p = 0.0;
  /// Probability a UDP datagram is held back an extra uniform
  /// [0, reorder_spread] — enough to land behind later traffic.
  double reorder_p = 0.0;
  Duration reorder_spread{};

  /// True when the value perturbs anything.
  bool any() const {
    return egress_loss > 0.0 || ingress_loss > 0.0 ||
           !extra_latency.is_zero() || !jitter.is_zero() ||
           duplicate_p > 0.0 || reorder_p > 0.0;
  }
};

/// The link fault `f` installs; process-level kinds carry no link math and
/// yield an empty one.
LinkFault link_fault_of(const Fault& f);

// ---------------------------------------------------------------------------
// Victim selection

/// Who a fault afflicts. resolve() draws from the cluster Rng only for the
/// random modes, in a fixed order, so (scenario, seed) replays identically.
struct VictimSelector {
  enum class Mode : std::uint8_t {
    kUniform,   ///< `count` distinct members, uniform without replacement
    kExplicit,  ///< exactly `indices`
    kFraction,  ///< round(fraction * cluster_size) members, uniform
    kIsland,    ///< the contiguous block [first, first + count)
  };

  Mode mode = Mode::kUniform;
  int count = 0;
  double fraction = 0.0;
  std::vector<int> indices;
  int first = 0;  ///< kIsland only

  static VictimSelector uniform(int count);
  static VictimSelector nodes(std::vector<int> indices);
  static VictimSelector fraction_of(double fraction);
  static VictimSelector island(int size, int first = 0);

  /// How many victims this resolves to in a cluster of `cluster_size`.
  int resolved_count(int cluster_size) const;

  /// Materialize the victim set. `exclude_seed_node` removes node 0 from the
  /// random draws (churn: node 0 is the rejoin seed). The uniform draw is
  /// shuffle-then-truncate: one shuffle of the eligible indices, clamped to
  /// the pool size.
  std::vector<int> resolve(int cluster_size, Rng& rng,
                           bool exclude_seed_node) const;

  /// "x4", "nodes 1+3+5", "25%", "island [0,4)" — for summaries.
  std::string describe() const;
};

// ---------------------------------------------------------------------------
// Timeline

/// One phased entry: at `at` (offset from injection start, i.e. after the
/// quiesce), `fault` afflicts `victims` for `duration`. Cycling kinds keep
/// cycling until the span closes; partition re-merges and network overlays
/// are removed at span end. A block whose span outlives the observation
/// window keeps the run alive until it ends (the engine extends the run).
struct TimelineEntry {
  Duration at{};
  Duration duration{};
  Fault fault;
  VictimSelector victims = VictimSelector::uniform(1);

  /// "loss@10s+30s x2 egress=0.30" — stable, grep-able.
  std::string describe() const;
};

class Timeline {
 public:
  Timeline() = default;

  /// Append an entry; returns *this for chaining.
  Timeline& add(Duration at, Duration duration, Fault fault,
                VictimSelector victims);
  Timeline& add(TimelineEntry entry);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<TimelineEntry>& entries() const { return entries_; }
  /// Mutable access for sweep axes; throws std::out_of_range with an
  /// actionable message when `i` does not name an entry.
  TimelineEntry& entry(std::size_t i);

  /// Empty when runnable against a cluster of `cluster_size`; otherwise one
  /// message per defect, each naming the offending entry.
  std::vector<std::string> validate(int cluster_size) const;

  /// "block@0s+16s x4; loss@10s+30s x2 egress=0.30" — catalog / --json form.
  std::string summary() const;

 private:
  std::vector<TimelineEntry> entries_;
};

/// Parse one `--fault` flag value into an entry. Grammar:
///
///   KIND@AT:DUR[,key=value]...
///
/// KIND is a fault_kind_name(). AT/DUR (and every duration value) accept
/// `us`, `ms` or `s` suffixes; a bare number is milliseconds. Keys:
///   victims=N | nodes=A+B+C | pct=P | island=N[+FIRST]   (selector)
///   d=DUR i=DUR            cycle shape (interval/flapping); churn aliases
///   down=DUR up=DUR        churn downtime/uptime
///   bmin/bmax/rmin/rmax=DUR  stress block/run span distributions
///   egress=P ingress=P     link loss probabilities
///   extra=DUR jitter=DUR   added latency
///   p=P spread=DUR         duplicate/reorder probability and reorder spread
///
/// Returns nullopt and sets `error` (naming the offending token) on any
/// malformed input. Semantic checks are Timeline::validate()'s job.
std::optional<TimelineEntry> parse_timeline_entry(std::string_view spec,
                                                  std::string& error);

// ---------------------------------------------------------------------------
// Fuzzing hooks (src/fuzz)

/// Every FaultKind in declaration order — the fuzzer's enumeration seam.
const std::vector<FaultKind>& all_fault_kinds();

/// Draw a random entry of `kind` that Timeline::validate() accepts against a
/// `cluster_size`-node cluster, with `at + duration <= horizon`. Every value
/// lands on the serializable grid: durations are whole milliseconds (the
/// `<N>us` rendering is exact) and probabilities are twentieths (shortest
/// double form, exact strtod round trip), so the entry round-trips through
/// check::entry_spec() bit-for-bit. Victim selectors come from the uniform /
/// explicit / island modes only — never kFraction, whose pct rendering
/// multiplies by 100 and cannot guarantee an exact round trip.
/// Requires cluster_size >= 3 and horizon >= 1 s.
TimelineEntry random_timeline_entry(FaultKind kind, int cluster_size,
                                    Duration horizon, Rng& rng);

/// Re-draw one rng-chosen dimension of `e` (onset, duration, victims or the
/// kind's parameters) under the same grid, keeping the entry validate-clean
/// and `at + duration <= horizon`.
void perturb_timeline_entry(TimelineEntry& e, int cluster_size,
                            Duration horizon, Rng& rng);

/// "The test ends at the end of the next anomalous period" (§V-D2):
/// `span` rounded up to whole (duration + interval) cycles — the end of the
/// last interval cycle the schedule begins inside the span.
Duration cycle_aligned_length(Duration span, Duration duration,
                              Duration interval);

}  // namespace lifeguard::fault
