#include "proto/broadcast.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "proto/wire.h"

namespace lifeguard::proto {

int retransmit_limit(int retransmit_mult, int n) {
  const double scale = std::ceil(std::log10(static_cast<double>(n) + 1.0));
  return static_cast<int>(retransmit_mult * std::max(1.0, scale));
}

std::uint32_t& BroadcastQueue::head(int transmits) {
  const auto t = static_cast<std::size_t>(transmits);
  if (t >= heads_.size()) heads_.resize(t + 1, kNil);
  return heads_[t];
}

void BroadcastQueue::link_after(std::uint32_t prev, std::uint32_t slot) {
  Entry& e = entries_[slot];
  std::uint32_t& link = prev == kNil ? head(e.transmits) : entries_[prev].next;
  e.prev = prev;
  e.next = link;
  if (e.next != kNil) entries_[e.next].prev = slot;
  link = slot;
}

void BroadcastQueue::unlink(std::uint32_t slot) {
  const Entry& e = entries_[slot];
  (e.prev == kNil ? head(e.transmits) : entries_[e.prev].next) = e.next;
  if (e.next != kNil) entries_[e.next].prev = e.prev;
}

void BroadcastQueue::erase(std::uint32_t slot) {
  Entry& e = entries_[slot];
  by_key_.erase(by_key_.find(*e.key));
  e.key = nullptr;
  e.frame = std::vector<std::uint8_t>();  // release the frame's storage now
  e.next = free_;
  free_ = slot;
}

void BroadcastQueue::release_if_drained() {
  if (!by_key_.empty()) return;
  entries_ = std::vector<Entry>();
  heads_.clear();
  free_ = kNil;
  min_frame_size_ = SIZE_MAX;
}

void BroadcastQueue::queue(const std::string& member,
                           std::vector<std::uint8_t> frame) {
  const auto [it, inserted] = by_key_.try_emplace(member, kNil);
  if (inserted) {
    if (free_ != kNil) {
      it->second = free_;
      free_ = entries_[free_].next;
    } else {
      it->second = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[it->second].key = &it->first;
  } else {
    unlink(it->second);  // the new update takes the old one's slot
  }
  Entry& e = entries_[it->second];
  min_frame_size_ = std::min(min_frame_size_, frame.size());
  e.frame = std::move(frame);
  e.enqueue_id = next_id_++;
  e.transmits = 0;
  link_after(kNil, it->second);  // the newest entry heads count 0's list
}

void BroadcastQueue::invalidate(const std::string& member) {
  const auto it = by_key_.find(member);
  if (it == by_key_.end()) return;
  const std::uint32_t slot = it->second;
  unlink(slot);
  erase(slot);
  release_if_drained();
}

void BroadcastQueue::append_broadcasts(CompoundWriter& out,
                                       std::size_t per_frame_overhead_base,
                                       std::size_t byte_budget, int n) {
  if (by_key_.empty()) return;

  const int limit = retransmit_limit(retransmit_mult_, n);
  std::size_t used = 0;
  // No queued frame can cost less than the smallest ever queued; once even
  // that cannot fit, every remaining entry would be skipped too, so stop
  // scanning. During a join storm (queues holding O(n) updates, budget full
  // after a few dozen frames) this turns a per-message O(n) walk into
  // O(selected). Selection is unchanged: the bound never exceeds any
  // remaining frame's true cost.
  const std::size_t min_cost = min_frame_size_ + per_frame_overhead_base +
                               compound_frame_overhead(min_frame_size_);
  selected_.clear();
  for (std::size_t t = 0; t < heads_.size() && used + min_cost <= byte_budget;
       ++t) {
    for (std::uint32_t s = heads_[t];
         s != kNil && used + min_cost <= byte_budget; s = entries_[s].next) {
      const Entry& e = entries_[s];
      const std::size_t cost = e.frame.size() + per_frame_overhead_base +
                               compound_frame_overhead(e.frame.size());
      if (used + cost > byte_budget) continue;  // try smaller later frames
      used += cost;
      out.add(e.frame);
      selected_.push_back(s);
    }
  }
  total_transmits_ += static_cast<std::int64_t>(selected_.size());

  // Count bumps are applied after the scan, so this pass selected against
  // the counts it started with. Each count's picks arrive newest first, and
  // the next count's list is newest first too, so one forward cursor per
  // destination list finds every insert position.
  int into = -1;                 // the list the cursor walks
  std::uint32_t cursor = kNil;   // last entry moved into it (kNil: head)
  for (const std::uint32_t s : selected_) {
    Entry& e = entries_[s];
    unlink(s);
    ++e.transmits;
    max_transmits_ = std::max(max_transmits_, e.transmits);
    if (e.transmits >= limit) {
      erase(s);  // reached its retransmit limit
      continue;
    }
    if (e.transmits != into) {
      into = e.transmits;
      cursor = kNil;
    }
    std::uint32_t next = cursor == kNil ? head(into) : entries_[cursor].next;
    while (next != kNil && entries_[next].enqueue_id > e.enqueue_id) {
      cursor = next;
      next = entries_[next].next;
    }
    link_after(cursor, s);
    cursor = s;
  }
  release_if_drained();
}

std::vector<std::vector<std::uint8_t>> BroadcastQueue::get_broadcasts(
    std::size_t per_frame_overhead_base, std::size_t byte_budget, int n) {
  CompoundWriter w;
  append_broadcasts(w, per_frame_overhead_base, byte_budget, n);
  std::vector<std::span<const std::uint8_t>> frames;
  unpack_compound(w.wrapped(), frames);
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto f : frames) out.emplace_back(f.begin(), f.end());
  return out;
}

}  // namespace lifeguard::proto
