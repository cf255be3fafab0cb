// Suspicion bookkeeping — the heart of LHA-Suspicion (paper §IV-B).
//
// The timeout for a suspicion starts at Max and decays toward Min as
// *independent* suspicions (same member, distinct originators) are processed:
//
//   timeout(C) = max(Min, Max − (Max−Min) · log(C+1) / log(K+1))
//
// where C counts independent confirmations received since the local suspicion
// was raised and K is the confirmation count that drives the timeout all the
// way to Min. Logarithmic decay: the first confirmation buys the largest
// reduction. With Min == Max (or K == 0) this degrades to SWIM's fixed
// timeout, which is how the SWIM baseline is expressed.
//
// This class is pure bookkeeping (no timers); the node owns the actual timer
// and re-arms it from remaining_at().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace lifeguard::swim {

/// std::hash<std::string> for containers keyed by member name that are
/// looked up by std::string_view (with std::equal_to<>): the two hashes are
/// equal, so a lookup builds no key string and the iteration order is that
/// of a std::hash<std::string> container.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};

/// The paper's timeout formula, exposed for tests and benches.
/// C < 0 is treated as 0; K <= 0 yields Min-style fixed behaviour via Max.
Duration suspicion_timeout(Duration min, Duration max, int k, int c);

/// Computes Min for the current cluster: α·log10(n)·probe_interval, clamped
/// below by α·probe_interval so tiny clusters keep a sane floor (§V-C).
Duration suspicion_min(double alpha, int n, Duration probe_interval);

class Suspicion {
 public:
  /// `first_from` is the originator of the suspicion that created this state
  /// (self when we raised it from a failed probe, or the gossip originator
  /// when adopted). It counts toward K but not toward C.
  Suspicion(std::string member, std::uint64_t incarnation,
            std::string first_from, Duration min, Duration max, int k,
            TimePoint start);

  /// Register an independent suspicion from `from`. Returns true when `from`
  /// is new AND more confirmations were still wanted — the caller should then
  /// re-gossip the suspicion and re-arm its timer (paper: the first K
  /// independent suspicions are re-gossiped).
  bool confirm(std::string_view from);

  /// Current timeout given confirmations so far.
  Duration timeout() const;
  /// Deadline = start + timeout().
  TimePoint deadline() const { return start_ + timeout(); }
  /// Time left until the deadline as seen from `now` (may be negative).
  Duration remaining_at(TimePoint now) const { return deadline() - now; }

  int confirmations() const { return confirmation_count_; }
  /// All distinct originators seen (creator + confirmations); diagnostics.
  std::vector<std::string> origins() const {
    return {seen_from_.begin(), seen_from_.end()};
  }
  bool accepts_more() const { return confirmation_count_ < k_; }
  const std::string& member() const { return member_; }
  std::uint64_t incarnation() const { return incarnation_; }
  void set_incarnation(std::uint64_t inc) { incarnation_ = inc; }
  TimePoint start() const { return start_; }

  /// Timer handle owned by the node (kInvalidTimer when not armed).
  TimerId timer = kInvalidTimer;

 private:
  std::string member_;
  std::uint64_t incarnation_;
  Duration min_;
  Duration max_;
  int k_;
  TimePoint start_;
  int confirmation_count_ = 0;  // C: independent confirmations after creation
  std::unordered_set<std::string, NameHash, std::equal_to<>> seen_from_;
};

}  // namespace lifeguard::swim
