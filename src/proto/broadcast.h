// Transmit-limited gossip broadcast queue (memberlist's
// TransmitLimitedQueue).
//
// Each state update (alive / suspect / dead about one member) is enqueued as a
// pre-encoded frame keyed by the member's name. An update is piggybacked onto
// outgoing packets until it has been transmitted `retransmit_limit(n)` times,
// where n is the current cluster size — the `λ·⌈log10(n+1)⌉` rule from SWIM's
// dissemination component. Selection prefers frames with the fewest transmits
// so far (SWIM's "prefer less-shared updates" rule); among equals, newer
// first. A new update about a member invalidates any queued older update
// about the same member.
//
// Layout: every queued update takes the next position of an enqueue-order
// position space (a requeue takes a fresh one), and each transmit count keeps
// one bitset over the positions. Scanning counts ascending, and each count's
// bits from the highest position down, is the selection order; a transmit
// clears one bit and sets the same bit in the next count's set. Keys and
// frames live in one byte arena. Erased updates leave holes, and positions
// and arena are compacted together, in order, once holes fill half the
// position space.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace lifeguard::proto {

class CompoundWriter;

/// λ·⌈log10(n+1)⌉ with multiplier λ. n is the number of known members.
int retransmit_limit(int retransmit_mult, int n);

class BroadcastQueue {
 public:
  explicit BroadcastQueue(int retransmit_mult)
      : retransmit_mult_(retransmit_mult) {}

  /// Queue a copy of `frame` (an encoded message) keyed by `member`.
  /// Replaces any queued broadcast with the same key. Throws
  /// std::length_error if the arena would outgrow 32-bit offsets.
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

  /// The update at one position: its key's bytes, then its frame's, at
  /// arena_[at]. A position whose update was erased or requeued is a hole.
  struct Entry {
    std::uint32_t at = 0;
    std::uint32_t key_size = 0;
    std::uint32_t frame_size = 0;
    std::uint32_t hash = 0;  // the key's, for the index
    int transmits = kHole;
  };
  /// Key-index bucket: a position and 32 bits of its key's hash, so a probe
  /// compares keys only on a hash match.
  struct Bucket {
    std::uint32_t pos = kNone;
    std::uint32_t hash = 0;
  };

  std::string_view key_of(const Entry& e) const {
    return {reinterpret_cast<const char*>(arena_.data() + e.at), e.key_size};
  }
  std::span<const std::uint8_t> frame_of(const Entry& e) const {
    return {arena_.data() + e.at + e.key_size, e.frame_size};
  }
  /// Adds `pos` to the set of count `transmits`.
  void place(std::uint32_t pos, int transmits);
  /// Removes `pos` from the set of its entry's count.
  void unplace(std::uint32_t pos);

  static std::uint32_t hash_key(std::string_view key);
  /// Position of `key`'s bucket, or of the empty bucket that ends its probe
  /// run. `index_` must be non-empty.
  std::size_t bucket_of(std::string_view key, std::uint32_t hash) const;
  /// Places `b` in the first empty bucket of its probe run.
  void insert_bucket(Bucket b);
  void grow_index();
  /// Backward-shift deletion of the bucket at `pos` (no tombstones).
  void unindex(std::size_t pos);
  /// Drops the update at `pos` (already unplaced): unindexes its key and
  /// leaves a hole.
  void erase(std::uint32_t pos);
  /// Renumbers the live positions 0.., in order, moving their arena bytes
  /// down with them, and rebuilds the sets and the index.
  void compact();
  /// Releases the entries, arena and index once the queue is empty.
  void release_if_drained();

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
  /// Keys and frames in position order, holes included until compaction.
  std::vector<std::uint8_t> arena_;
  /// sets_[t]: bitset over positions of the updates transmitted t times
  /// (words beyond a set's size are zero); counts_[t]: its population.
  std::vector<std::vector<std::uint64_t>> sets_;
  std::vector<std::uint32_t> counts_;
  /// Open-addressing key → position index (linear probing, power-of-two
  /// size, at most half full).
  std::vector<Bucket> index_;
  /// Positions selected by the current append_broadcasts, in selection order.
  std::vector<std::uint32_t> selected_;
};

}  // namespace lifeguard::proto
