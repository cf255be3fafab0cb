#include "proto/broadcast.h"

#include <algorithm>
#include <cmath>

#include "proto/wire.h"

namespace lifeguard::proto {

int retransmit_limit(int retransmit_mult, int n) {
  const double scale = std::ceil(std::log10(static_cast<double>(n) + 1.0));
  return static_cast<int>(retransmit_mult * std::max(1.0, scale));
}

void BroadcastQueue::queue(const std::string& member,
                           std::vector<std::uint8_t> frame) {
  invalidate(member);
  const Rank rank{0, next_id_++};
  min_frame_size_ = std::min(min_frame_size_, frame.size());
  KeySlot& slot = *by_key_.emplace(member, rank).first;
  entries_.emplace(rank, Entry{&slot, std::move(frame)});
}

void BroadcastQueue::invalidate(const std::string& member) {
  const auto it = by_key_.find(member);
  if (it == by_key_.end()) return;
  entries_.erase(it->second);
  by_key_.erase(it);
  if (entries_.empty()) min_frame_size_ = SIZE_MAX;
}

std::vector<std::vector<std::uint8_t>> BroadcastQueue::get_broadcasts(
    std::size_t per_frame_overhead_base, std::size_t byte_budget, int n) {
  std::vector<std::vector<std::uint8_t>> out;
  if (entries_.empty()) return out;

  const int limit = retransmit_limit(retransmit_mult_, n);
  std::size_t used = 0;
  // No queued frame can cost less than the smallest ever queued; once even
  // that cannot fit, every remaining entry would be skipped too, so stop
  // scanning. During a join storm (queues holding O(n) updates, budget full
  // after a few dozen frames) this turns a per-message O(n) walk into
  // O(selected). Selection is unchanged: the bound never exceeds any
  // remaining frame's true cost.
  const std::size_t lb_size = min_frame_size_ == SIZE_MAX ? 0 : min_frame_size_;
  const std::size_t min_cost = lb_size + per_frame_overhead_base +
                               compound_frame_overhead(lb_size);
  // Entries iterate in selection order (fewest transmits, then newest).
  // Rank bumps for selected entries are applied after the scan — exactly
  // like the old sorted-vector walk, whose in-loop ++transmits never
  // re-sorted the current pass either.
  std::vector<std::map<Rank, Entry, RankLess>::iterator> selected;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (used + min_cost > byte_budget) break;  // nothing more can fit
    const Entry& e = it->second;
    const std::size_t cost =
        e.frame.size() + per_frame_overhead_base +
        compound_frame_overhead(e.frame.size());
    if (used + cost > byte_budget) continue;  // try smaller later frames
    used += cost;
    out.push_back(e.frame);
    ++total_transmits_;
    max_transmits_ = std::max(max_transmits_, it->first.transmits + 1);
    selected.push_back(it);
  }
  for (auto it : selected) {
    const Rank bumped{it->first.transmits + 1, it->first.enqueue_id};
    auto node = entries_.extract(it);
    KeySlot* slot = node.mapped().slot;
    if (bumped.transmits >= limit) {
      by_key_.erase(slot->first);  // reached its retransmit limit
      continue;
    }
    slot->second = bumped;
    node.key() = bumped;
    entries_.insert(std::move(node));
  }
  if (entries_.empty()) min_frame_size_ = SIZE_MAX;
  return out;
}

}  // namespace lifeguard::proto
