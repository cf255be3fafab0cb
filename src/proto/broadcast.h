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
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace lifeguard::proto {

class CompoundWriter;

/// λ·⌈log10(n+1)⌉ with multiplier λ. n is the number of known members.
int retransmit_limit(int retransmit_mult, int n);

class BroadcastQueue {
 public:
  explicit BroadcastQueue(int retransmit_mult)
      : retransmit_mult_(retransmit_mult) {}
  // Entries point at keys inside by_key_'s nodes: a move keeps those nodes,
  // a copy would leave the copy's entries pointing into the original.
  BroadcastQueue(const BroadcastQueue&) = delete;
  BroadcastQueue& operator=(const BroadcastQueue&) = delete;
  BroadcastQueue(BroadcastQueue&&) = default;
  BroadcastQueue& operator=(BroadcastQueue&&) = default;

  /// Queue `frame` (an encoded message) keyed by `member`. Replaces any
  /// queued broadcast with the same key.
  void queue(const std::string& member, std::vector<std::uint8_t> frame);

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
  void invalidate(const std::string& member);

  std::size_t pending() const { return by_key_.size(); }
  bool empty() const { return by_key_.empty(); }

  /// Total frames handed out by the selection (telemetry).
  std::int64_t total_transmits() const { return total_transmits_; }
  /// Highest per-update transmit count ever reached (telemetry; the
  /// checking layer asserts it never exceeds retransmit_limit at the
  /// largest cluster size the queue has seen).
  int max_transmits() const { return max_transmits_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One queued update in a slot of `entries_`. `prev`/`next` link it into
  /// the list of its transmit count; a free slot's `next` links the free
  /// list.
  struct Entry {
    std::vector<std::uint8_t> frame;
    std::uint64_t enqueue_id = 0;        // newer = larger
    const std::string* key = nullptr;    // its by_key_ element's key
    int transmits = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Head of the list of entries transmitted `transmits` times.
  std::uint32_t& head(int transmits);
  /// Links `slot` into its count's list after `prev` (kNil: at the head).
  void link_after(std::uint32_t prev, std::uint32_t slot);
  void unlink(std::uint32_t slot);
  /// Erases `slot`'s key and frees the slot (its frame storage with it).
  void erase(std::uint32_t slot);
  /// Releases the slot storage once the queue is empty.
  void release_if_drained();

  int retransmit_mult_;
  std::uint64_t next_id_ = 1;
  std::int64_t total_transmits_ = 0;
  int max_transmits_ = 0;
  /// Lower bound on the smallest queued frame size (never raised while the
  /// queue is non-empty; reset when it drains). Lets the selection stop
  /// scanning once no conceivable frame fits the remaining budget.
  std::size_t min_frame_size_ = SIZE_MAX;
  /// Entry slots; released whenever the queue drains, so an idle queue
  /// keeps no high-water storage.
  std::vector<Entry> entries_;
  std::uint32_t free_ = kNil;
  /// heads_[t]: the list of entries transmitted t times, newest first.
  /// Walking the lists in count order is the selection order (fewest
  /// transmits, then newest), and a transmit moves an entry to the next
  /// list without re-sorting anything.
  std::vector<std::uint32_t> heads_;
  /// Member key → slot (entries are unique per key).
  std::unordered_map<std::string, std::uint32_t> by_key_;
  /// Slots selected by the current append_broadcasts, in selection order.
  std::vector<std::uint32_t> selected_;
};

}  // namespace lifeguard::proto
