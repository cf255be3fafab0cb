#include "harness/accounting.h"

#include <algorithm>

namespace lifeguard::harness {

FailureAccounting::FailureAccounting(int cluster_size)
    : n_(std::max(cluster_size, 0)),
      row_(static_cast<std::size_t>(n_), -1) {}

void FailureAccounting::begin(TimePoint anomaly_start,
                              const std::vector<int>& victims) {
  started_ = true;
  start_ = anomaly_start;
  for (int v : victims) {
    if (v < 0 || v >= n_ || row_[static_cast<std::size_t>(v)] >= 0) continue;
    row_[static_cast<std::size_t>(v)] = static_cast<int>(victims_.size());
    victims_.push_back(v);
  }
  first_mark_.assign(victims_.size() * static_cast<std::size_t>(n_), kNever);
  first_detect_.assign(victims_.size(), kNever);
}

void FailureAccounting::on_trace_event(const check::TraceEvent& e) {
  if (!started_ || e.kind != check::TraceEventKind::kFailed ||
      e.at < start_) {
    return;
  }
  const int reporter = e.node;
  const int subject = e.peer;
  if (reporter < 0 || reporter >= n_ || subject < 0 || subject >= n_) return;
  const int row = row_[static_cast<std::size_t>(subject)];
  if (row < 0) {
    if (e.originated) {
      ++fp_events_;
      if (row_[static_cast<std::size_t>(reporter)] < 0) ++fp_healthy_events_;
    }
    return;
  }
  if (reporter == subject) return;
  std::int64_t& mark = first_mark_[cell(row, reporter)];
  mark = std::min(mark, e.at.us);
  if (e.originated) {
    std::int64_t& first = first_detect_[static_cast<std::size_t>(row)];
    first = std::min(first, e.at.us);
  }
}

void FailureAccounting::fill(RunResult& out) const {
  out.fp_events = fp_events_;
  out.fp_healthy_events = fp_healthy_events_;
  auto since_start = [this](std::int64_t us) {
    return (TimePoint{us} - start_).seconds();
  };
  for (std::size_t row = 0; row < victims_.size(); ++row) {
    if (first_detect_[row] == kNever) continue;
    out.first_detect.push_back(since_start(first_detect_[row]));
    // The latest first mark over the healthy members (victims, this one
    // included, are not healthy): kNever when one of them never marked it,
    // kNoHealthy when there is no healthy member at all.
    constexpr std::int64_t kNoHealthy =
        std::numeric_limits<std::int64_t>::min();
    std::int64_t last = kNoHealthy;
    for (int i = 0; i < n_; ++i) {
      if (row_[static_cast<std::size_t>(i)] >= 0) continue;
      last = std::max(last, first_mark_[cell(static_cast<int>(row), i)]);
    }
    if (last != kNoHealthy && last != kNever) {
      out.full_dissem.push_back(since_start(last));
    }
  }
}

}  // namespace lifeguard::harness
