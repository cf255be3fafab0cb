#include "swim/membership.h"

#include <algorithm>
#include <utility>

namespace lifeguard::swim {

// ---- IdSet ----

void MembershipTable::IdSet::assign(Id id, bool in) {
  if (in == contains(id)) return;
  if (!in) {
    erase(id);
    return;
  }
  if (at.size() <= id) at.resize(static_cast<std::size_t>(id) + 1, kNone);
  at[id] = static_cast<Id>(ids.size());
  ids.push_back(id);
}

void MembershipTable::IdSet::erase(Id id) {
  if (!contains(id)) return;
  const Id last = ids.back();
  ids[at[id]] = last;
  at[last] = at[id];
  ids.pop_back();
  at[id] = kNone;
}

void MembershipTable::IdSet::swap(std::size_t p, std::size_t q) {
  std::swap(ids[p], ids[q]);
  at[ids[p]] = static_cast<Id>(p);
  at[ids[q]] = static_cast<Id>(q);
}

void MembershipTable::IdSet::rename(Id from, Id to) {
  if (!contains(from)) return;
  ids[at[from]] = to;
  at[to] = at[from];
  at[from] = kNone;
}

// ---- table ----

MembershipTable::MembershipTable(std::string self_name)
    : own_names_(std::make_unique<NameIndex>()),
      names_(own_names_.get()),
      self_(std::move(self_name)) {}

MembershipTable::MembershipTable(std::string self_name, NameIndex& names)
    : names_(&names), self_(std::move(self_name)) {}

MembershipTable::Id MembershipTable::lookup(std::string_view name) const {
  return slot_of_.get(names_->find(name));
}

Member* MembershipTable::find(std::string_view name) {
  const Id id = lookup(name);
  return id == kNone ? nullptr : &slots_[id];
}

const Member* MembershipTable::find(std::string_view name) const {
  const Id id = lookup(name);
  return id == kNone ? nullptr : &slots_[id];
}

bool MembershipTable::contains(std::string_view name) const {
  return lookup(name) != kNone;
}

void MembershipTable::track(Id id) {
  if (id == self_id_) return;
  const MemberState s = slots_[id].state;
  active_.assign(id, is_active(s));
  dead_.assign(id, s == MemberState::kDead);
}

Member& MembershipTable::add(Member m, Rng& rng) {
  Id& slot = slot_of_.at(names_->intern(m.name), *names_);
  if (slot != kNone) return slots_[slot];
  const Id id = static_cast<Id>(slots_.size());
  slot = id;
  slots_.push_back(std::move(m));
  if (slots_[id].name == self_) {
    self_id_ = id;
    return slots_[id];
  }
  track(id);
  // Random-position insertion keeps expected first-detection latency equal
  // to uniform random selection (paper §III-A).
  const std::size_t pos =
      static_cast<std::size_t>(rng.uniform(probe_order_.size() + 1));
  probe_order_.insert(probe_order_.begin() + static_cast<std::ptrdiff_t>(pos),
                      id);
  if (pos < probe_index_) ++probe_index_;
  return slots_[id];
}

void MembershipTable::set_state(Member& m, MemberState s, TimePoint now) {
  m.state = s;
  m.state_change = now;
  track(static_cast<Id>(&m - slots_.data()));
}

void MembershipTable::remove(std::string_view name) {
  const Id id = lookup(name);
  if (id == kNone) return;
  slot_of_.at(names_->find(name), *names_) = kNone;
  active_.erase(id);
  dead_.erase(id);
  if (id == self_id_) self_id_ = kNone;
  const auto it = std::find(probe_order_.begin(), probe_order_.end(), id);
  if (it != probe_order_.end()) {
    // A removed entry before the cursor shifts the rest of the pass down by
    // one; the cursor follows, so no member of this pass goes unprobed.
    if (static_cast<std::size_t>(it - probe_order_.begin()) < probe_index_) {
      --probe_index_;
    }
    probe_order_.erase(it);
  }

  // Keep the slots dense: the last member moves into the freed id.
  const Id last = static_cast<Id>(slots_.size() - 1);
  if (id != last) {
    slot_of_.at(names_->find(slots_[last].name), *names_) = id;
    active_.rename(last, id);
    dead_.rename(last, id);
    std::replace(probe_order_.begin(), probe_order_.end(), last, id);
    if (self_id_ == last) self_id_ = id;
    slots_[id] = std::move(slots_[last]);
  }
  slots_.pop_back();
}

Member* MembershipTable::next_probe_target(Rng& rng) {
  // At most one full pass + reshuffle; bails out if nothing is eligible.
  std::size_t checked = 0;
  const std::size_t limit = probe_order_.size() + 1;
  while (checked++ < limit) {
    if (probe_index_ >= probe_order_.size()) {
      rng.shuffle(probe_order_);
      probe_index_ = 0;
      if (probe_order_.empty()) return nullptr;
    }
    Member& m = slots_[probe_order_[probe_index_++]];
    if (is_active(m.state)) return &m;
  }
  return nullptr;
}

// ---- random selection ----

std::vector<Member*> MembershipTable::sample(int k, Rng& rng, IdSet& set,
                                             std::size_t end,
                                             std::vector<Id> extra) {
  const std::size_t total = end + extra.size();
  const std::size_t want =
      std::min(static_cast<std::size_t>(std::max(k, 0)), total);
  std::vector<Member*> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform(total - i));
    // Position i is never read again, so only j must receive i's id. Within
    // the set that is a swap; an `extra` position can simply be overwritten,
    // which keeps `set.ids` a permutation of the set.
    Id picked = kNone;
    if (j < end) {
      set.swap(i, j);
      picked = set.ids[i];
    } else {
      picked = extra[j - end];
      extra[j - end] = i < end ? set.ids[i] : extra[i - end];
    }
    out.push_back(&slots_[picked]);
  }
  return out;
}

std::vector<Member*> MembershipTable::random_active(
    int k, Rng& rng, const std::vector<std::string>& exclude) {
  // Park excluded members past the end of the candidate range (a name
  // listed twice is already parked).
  std::size_t end = active_.ids.size();
  for (const std::string& name : exclude) {
    const Id id = lookup(name);
    if (!active_.contains(id) || active_.at[id] >= end) continue;
    active_.swap(active_.at[id], --end);
  }
  return sample(k, rng, active_, end, {});
}

std::vector<Member*> MembershipTable::random_active_or_recently_dead(
    int k, Rng& rng, TimePoint now, Duration dead_window) {
  std::vector<Id> recent;
  for (const Id id : dead_.ids) {
    if (now - slots_[id].state_change < dead_window) recent.push_back(id);
  }
  return sample(k, rng, active_, active_.ids.size(), std::move(recent));
}

std::vector<Member*> MembershipTable::random_dead(int k, Rng& rng) {
  return sample(k, rng, dead_, dead_.ids.size(), {});
}

}  // namespace lifeguard::swim
