// Transmit-limited gossip broadcast queue (memberlist's
// TransmitLimitedQueue).
//
// Each state update (alive / suspect / dead about one member) is enqueued as a
// pre-encoded frame keyed by the member's name id (common/names.h). An update
// is piggybacked onto outgoing packets until it has been transmitted
// `retransmit_limit(n)` times, where n is the current cluster size — the `λ·⌈log10(n+1)⌉` rule from SWIM's
// dissemination component. Selection prefers frames with the fewest transmits
// so far (SWIM's "prefer less-shared updates" rule); among equals, newer
// first. A new update about a member invalidates any queued older update
// about the same member.
//
// Layout: every queued update takes the next position of an enqueue-order
// position space (a requeue takes a fresh one), and each transmit count keeps
// one bitset over the positions. Scanning counts ascending, and each count's
// bits from the highest position down, is the selection order; a transmit
// clears one bit and sets the same bit in the next count's set. Frames live
// in one byte arena. Erased updates leave holes, and positions and arena are compacted
// together, in order, once holes fill half the position space.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/names.h"

namespace lifeguard::proto {

class CompoundWriter;

/// λ·⌈log10(n+1)⌉ with multiplier λ. n is the number of known members.
int retransmit_limit(int retransmit_mult, int n);

class BroadcastQueue {
 public:
  /// Keys members by ids of `names` (which must outlive the queue), or of a
  /// private NameIndex.
  explicit BroadcastQueue(int retransmit_mult);
  BroadcastQueue(int retransmit_mult, NameIndex& names);

  /// Queue a copy of `frame` (an encoded message) keyed by `member`, whose
  /// name it interns. Replaces any queued broadcast with the same key.
  /// Throws std::length_error if the arena would outgrow 32-bit offsets.
  void queue(std::string_view member, std::span<const std::uint8_t> frame);

  /// Select frames to piggyback and append them to `out`: greedily packs
  /// frames (fewest transmits first) whose size + `per_frame_overhead_base`
  /// + compound length prefix fits within `byte_budget`. Increments transmit
  /// counts and drops frames that reached the limit for cluster size `n`.
  void append_broadcasts(CompoundWriter& out,
                         std::size_t per_frame_overhead_base,
                         std::size_t byte_budget, int n);

  /// As append_broadcasts, returning copies of the selected frames.
  std::vector<std::vector<std::uint8_t>> get_broadcasts(
      std::size_t per_frame_overhead_base, std::size_t byte_budget, int n);

  /// Remove a queued broadcast about `member` (e.g. superseded externally).
  /// Never interns a name.
  void invalidate(std::string_view member);

  std::size_t pending() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Total frames handed out by the selection (telemetry).
  std::int64_t total_transmits() const { return total_transmits_; }
  /// Highest per-update transmit count ever reached (telemetry; the
  /// checking layer asserts it never exceeds retransmit_limit at the
  /// largest cluster size the queue has seen).
  int max_transmits() const { return max_transmits_; }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr int kHole = -1;

  /// The update at one position: its member's name id, and its frame at
  /// arena_[at]. A position whose update was erased or requeued is a hole.
  struct Entry {
    std::uint32_t at = 0;
    std::uint32_t frame_size = 0;
    NameIndex::Id key = NameIndex::kNone;
    int transmits = kHole;
  };

  std::span<const std::uint8_t> frame_of(const Entry& e) const {
    return {arena_.data() + e.at, e.frame_size};
  }
  /// Adds `pos` to the set of count `transmits`.
  void place(std::uint32_t pos, int transmits);
  /// Removes `pos` from the set of its entry's count.
  void unplace(std::uint32_t pos);

  /// Drops the update at `pos` (already unplaced), leaving a hole.
  void erase(std::uint32_t pos);
  /// Renumbers the live positions 0.., in order, moving their arena bytes
  /// down with them, and rebuilds the sets and the positions by id.
  void compact();
  /// Releases the entries and arena once the queue is empty.
  void release_if_drained();

  std::unique_ptr<NameIndex> own_names_;  ///< set when built without one
  NameIndex* names_;
  int retransmit_mult_;
  std::int64_t total_transmits_ = 0;
  int max_transmits_ = 0;
  /// Queued updates (positions that are not holes).
  std::size_t live_ = 0;
  /// Lower bound on the smallest queued frame size (never raised while the
  /// queue is non-empty; reset when it drains). Lets the selection stop
  /// scanning once no conceivable frame fits the remaining budget.
  std::size_t min_frame_size_ = SIZE_MAX;
  /// Entries by position; its size is the position space.
  std::vector<Entry> entries_;
  /// Frames in position order, holes included until compaction.
  std::vector<std::uint8_t> arena_;
  /// sets_[t]: bitset over positions of the updates transmitted t times
  /// (words beyond a set's size are zero); counts_[t]: its population.
  std::vector<std::vector<std::uint64_t>> sets_;
  std::vector<std::uint32_t> counts_;
  /// Each queued member's position by name id.
  IdMap pos_of_;
  /// Positions selected by the current append_broadcasts, in selection order.
  std::vector<std::uint32_t> selected_;
};

}  // namespace lifeguard::proto
