// FailureAccounting — the paper's failure metrics (§V-F1/F2), defined once,
// over the merged event stream (check/events.h):
//
//   * FP: a member *originates* a failure declaration (its own suspicion
//     timeout fired) about a member outside the victim set;
//   * FP⁻: an FP whose reporter is outside the victim set too;
//   * first detection: a victim's earliest originated failure declaration at
//     any other member, victims included;
//   * full dissemination: when the last healthy member first marked a
//     detected victim failed (originated or applied from gossip) — counted
//     only once every healthy member has.
//
// Only kFailed events at or after the anomaly start count. harness::run
// feeds the sink through check::EventTap and live::run feeds it the merged
// worker streams, so both backends count alike, and a recorded trace can be
// counted again offline. State is O(|victims| · n): one first-mark row per
// victim.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "check/events.h"
#include "common/types.h"
#include "harness/scenario.h"

namespace lifeguard::harness {

class FailureAccounting final : public check::TraceSink {
 public:
  explicit FailureAccounting(int cluster_size);

  /// Start counting: `victims` (node indices; out-of-range ones are dropped)
  /// are the anomalous members, and events before `anomaly_start` do not
  /// count. Nothing counts before this call.
  void begin(TimePoint anomaly_start, const std::vector<int>& victims);

  void on_trace_event(const check::TraceEvent& e) override;

  /// Write fp_events, fp_healthy_events, first_detect and full_dissem into
  /// `out`; the latency samples (seconds since the anomaly start) follow the
  /// victim order given to begin().
  void fill(RunResult& out) const;

 private:
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  std::size_t cell(int row, int node) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(node);
  }

  int n_;
  bool started_ = false;
  TimePoint start_{};
  std::vector<int> victims_;
  /// Per node: its row in the victim tables, -1 for a healthy member.
  std::vector<int> row_;
  /// first_mark_[cell(row, i)]: when node i first marked the row's victim
  /// failed (us; kNever = not yet).
  std::vector<std::int64_t> first_mark_;
  /// Per row: the earliest originated declaration about the victim.
  std::vector<std::int64_t> first_detect_;
  std::int64_t fp_events_ = 0;
  std::int64_t fp_healthy_events_ = 0;
};

}  // namespace lifeguard::harness
