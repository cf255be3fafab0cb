// Membership table: the local view of the group.
//
// Owns the member records plus the round-robin probe order. SWIM's refinement
// over pure random probing (paper §III-A): targets are taken round-robin from
// a randomly ordered list, new members are inserted at a random position, and
// the list is reshuffled after each full pass. This bounds worst-case
// first-detection latency while preserving the expected-case analysis.
//
// Members live in dense slots addressed by a table-local id, found through
// an id → slot vector over a shared NameIndex (common/names.h). Two
// maintained id sets (the active members and the dead ones, self excluded)
// let every uniform random pick (gossip targets, ping-req relays, push-pull
// and reconnect peers) cost O(k) instead of a scan of all n members.
#pragma once

#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/names.h"
#include "common/rng.h"
#include "common/types.h"
#include "swim/member.h"

namespace lifeguard::swim {

class MembershipTable {
 public:
  /// `self` is excluded from probe/gossip target selection but stored like
  /// any member (it must appear in push-pull state). Names resolve through
  /// `names` (which must outlive the table), or a private NameIndex.
  explicit MembershipTable(std::string self_name);
  MembershipTable(std::string self_name, NameIndex& names);

  // ---- lookup (never interns a name) ----
  /// The stored record, or nullptr. The pointer is invalidated by a later
  /// add(), which may grow the slot vector, and by remove(), which moves the
  /// last slot into the freed one.
  Member* find(std::string_view name);
  const Member* find(std::string_view name) const;
  bool contains(std::string_view name) const;
  const std::string& self_name() const { return self_; }

  /// Number of known members in active states (alive or suspect), including
  /// self. This is the `n` used for gossip retransmit and suspicion scaling.
  /// O(1): the piggyback path asks on every outbound message.
  int num_active() const {
    const bool self_active =
        self_id_ != kNone && is_active(slots_[self_id_].state);
    return static_cast<int>(active_.ids.size()) + (self_active ? 1 : 0);
  }
  /// All known members (any state), in slot order.
  std::span<const Member> all() const { return slots_; }
  std::size_t size() const { return slots_.size(); }
  /// Members in an active state, self excluded, in no particular order.
  auto active() const {
    return active_.ids | std::views::transform([this](Id id) -> const Member& {
             return slots_[id];
           });
  }
  /// Members in state dead (failed, not left), self excluded, in no
  /// particular order.
  auto dead() const {
    return dead_.ids | std::views::transform([this](Id id) -> const Member& {
             return slots_[id];
           });
  }

  // ---- mutation ----
  /// Insert a new member (or return the stored one if the name is known);
  /// the one call that interns a name. Members other than self also enter
  /// the probe list at a random position (SWIM's join rule). The returned
  /// reference is invalidated like find()'s pointer: by the next add() or
  /// remove().
  Member& add(Member m, Rng& rng);
  /// Update state; moves the member between the active and dead sets. `m`
  /// must be a record of this table (from find or add). Does not touch probe
  /// order (inactive members are skipped lazily at selection time).
  void set_state(Member& m, MemberState s, TimePoint now);
  /// Drop a member entirely (dead-reclaim housekeeping); its name stays.
  void remove(std::string_view name);

  // ---- probe order ----
  /// Next round-robin probe target: skips self and non-active members;
  /// reshuffles at the end of each pass. Returns nullptr if no eligible
  /// target exists.
  Member* next_probe_target(Rng& rng);

  // ---- random selection ----
  // Each returns up to `k` distinct members chosen uniformly, never self:
  // a partial Fisher–Yates whose pick i of C candidates draws uniform(C − i).

  /// k random active members, excluding any name in `exclude`.
  /// O(k + |exclude|).
  std::vector<Member*> random_active(int k, Rng& rng,
                                     const std::vector<std::string>& exclude);
  /// k random members that are active, or dead for less than `dead_window`
  /// at `now` (memberlist's gossip-to-the-dead). O(k + |dead|).
  std::vector<Member*> random_active_or_recently_dead(int k, Rng& rng,
                                                      TimePoint now,
                                                      Duration dead_window);
  /// k random dead members. O(k).
  std::vector<Member*> random_dead(int k, Rng& rng);

 private:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  /// Ids in arbitrary order with O(1) insert, erase and membership test:
  /// `ids` lists the members, `at[id]` is each one's position in `ids`
  /// (kNone if absent).
  struct IdSet {
    std::vector<Id> ids;
    std::vector<Id> at;
    bool contains(Id id) const { return id < at.size() && at[id] != kNone; }
    /// Insert or erase `id` so that membership equals `in`.
    void assign(Id id, bool in);
    void erase(Id id);
    void swap(std::size_t p, std::size_t q);
    /// The member with id `from` now has id `to` (which is not in the set).
    void rename(Id from, Id to);
  };
  /// The slot of `name`, or kNone; never interns.
  Id lookup(std::string_view name) const;
  /// Puts a non-self member into the sets its state calls for.
  void track(Id id);
  /// The first `k` positions of a partial Fisher–Yates over the sequence
  /// `set.ids[0, end)` followed by `extra`. Positions in `set` are swapped in
  /// place (the set's order is arbitrary); `extra` is a by-value copy the
  /// draw may overwrite.
  std::vector<Member*> sample(int k, Rng& rng, IdSet& set, std::size_t end,
                              std::vector<Id> extra);

  std::unique_ptr<NameIndex> own_names_;  ///< set when built without one
  NameIndex* names_;
  std::string self_;
  Id self_id_ = kNone;
  /// Member records by id. Dense: remove() moves the last slot into the gap.
  std::vector<Member> slots_;
  /// Each member's slot by name id.
  IdMap slot_of_;
  IdSet active_;
  IdSet dead_;
  /// Round-robin probe order as ids (self never appears).
  std::vector<Id> probe_order_;
  std::size_t probe_index_ = 0;
};

}  // namespace lifeguard::swim
