#include "proto/broadcast.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "proto/wire.h"

namespace lifeguard::proto {

namespace {

constexpr std::size_t kWordBits = 64;
/// Holes inside a single bitset word cost the selection scan nothing, so a
/// position space that small is never compacted.
constexpr std::size_t kMinCompactPositions = kWordBits;

}  // namespace

int retransmit_limit(int retransmit_mult, int n) {
  const double scale = std::ceil(std::log10(static_cast<double>(n) + 1.0));
  return static_cast<int>(retransmit_mult * std::max(1.0, scale));
}

// ---- per-count sets ----

void BroadcastQueue::place(std::uint32_t pos, int transmits) {
  const auto t = static_cast<std::size_t>(transmits);
  if (t >= sets_.size()) {
    sets_.resize(t + 1);
    counts_.resize(t + 1, 0);
  }
  std::vector<std::uint64_t>& words = sets_[t];
  const std::size_t w = pos / kWordBits;
  if (w >= words.size()) words.resize(w + 1, 0);
  words[w] |= std::uint64_t{1} << (pos % kWordBits);
  ++counts_[t];
  entries_[pos].transmits = transmits;
}

void BroadcastQueue::unplace(std::uint32_t pos) {
  const auto t = static_cast<std::size_t>(entries_[pos].transmits);
  sets_[t][pos / kWordBits] &= ~(std::uint64_t{1} << (pos % kWordBits));
  --counts_[t];
}

// ---- key index ----

std::uint32_t BroadcastQueue::hash_key(std::string_view key) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
}

std::size_t BroadcastQueue::bucket_of(std::string_view key,
                                      std::uint32_t hash) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Bucket& b = index_[i];
    if (b.pos == kNone) return i;
    if (b.hash != hash) continue;
    if (key_of(entries_[b.pos]) == key) return i;
  }
}

void BroadcastQueue::insert_bucket(Bucket b) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = b.hash & mask;
  while (index_[i].pos != kNone) i = (i + 1) & mask;
  index_[i] = b;
}

void BroadcastQueue::grow_index() {
  const std::size_t capacity = std::max<std::size_t>(16, 2 * index_.size());
  const std::vector<Bucket> old =
      std::exchange(index_, std::vector<Bucket>(capacity));
  for (const Bucket& b : old) {
    if (b.pos != kNone) insert_bucket(b);
  }
}

void BroadcastQueue::unindex(std::size_t pos) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = (pos + 1) & mask; index_[i].pos != kNone;
       i = (i + 1) & mask) {
    // Shift the entry back into the hole unless that would put it before
    // its home bucket on the probe path.
    const std::size_t home = index_[i].hash & mask;
    if (((i - home) & mask) >= ((i - pos) & mask)) {
      index_[pos] = index_[i];
      pos = i;
    }
  }
  index_[pos] = Bucket{};
}

// ---- storage ----

void BroadcastQueue::erase(std::uint32_t pos) {
  Entry& e = entries_[pos];
  const std::size_t mask = index_.size() - 1;
  std::size_t b = e.hash & mask;
  while (index_[b].pos != pos) b = (b + 1) & mask;
  unindex(b);
  e.transmits = kHole;
  --live_;
}

void BroadcastQueue::compact() {
  for (std::vector<std::uint64_t>& words : sets_) words.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
  std::uint32_t next = 0;
  std::uint32_t write = 0;
  for (Entry e : entries_) {
    if (e.transmits == kHole) continue;
    const std::uint32_t bytes = e.key_size + e.frame_size;
    if (write != e.at) {  // moves down: `write` never passes `e.at`
      std::copy_n(arena_.begin() + e.at, bytes, arena_.begin() + write);
    }
    e.at = write;
    write += bytes;
    entries_[next] = e;
    place(next, e.transmits);
    ++next;
  }
  entries_.resize(next);
  arena_.resize(write);
  std::fill(index_.begin(), index_.end(), Bucket{});
  for (std::uint32_t pos = 0; pos < next; ++pos) {
    insert_bucket(Bucket{pos, entries_[pos].hash});
  }
}

void BroadcastQueue::release_if_drained() {
  if (live_ != 0) return;
  entries_ = std::vector<Entry>();
  arena_ = std::vector<std::uint8_t>();
  index_ = std::vector<Bucket>();
  // The sets hold a word per 64 positions per count: emptied, not freed,
  // so a short queue that drains and refills does not reallocate them.
  for (std::vector<std::uint64_t>& words : sets_) words.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
  min_frame_size_ = SIZE_MAX;
}

// ---- operations ----

void BroadcastQueue::queue(std::string_view member,
                           std::span<const std::uint8_t> frame) {
  if (entries_.size() >= kMinCompactPositions &&
      2 * (entries_.size() - live_) >= entries_.size()) {
    compact();
  }
  if (entries_.size() >= kNone ||
      arena_.size() + member.size() + frame.size() > UINT32_MAX) {
    throw std::length_error("broadcast queue arena exceeds 32-bit offsets");
  }
  if (2 * (live_ + 1) > index_.size()) grow_index();
  const std::uint32_t hash = hash_key(member);
  const auto pos = static_cast<std::uint32_t>(entries_.size());
  Bucket& b = index_[bucket_of(member, hash)];
  if (b.pos != kNone) {
    // The new update supersedes the queued one, whose position is a hole.
    unplace(b.pos);
    entries_[b.pos].transmits = kHole;
    b.pos = pos;
  } else {
    b = Bucket{pos, hash};
    ++live_;
  }
  Entry& e = entries_.emplace_back();
  e.at = static_cast<std::uint32_t>(arena_.size());
  e.key_size = static_cast<std::uint32_t>(member.size());
  e.frame_size = static_cast<std::uint32_t>(frame.size());
  e.hash = hash;
  arena_.insert(arena_.end(), member.begin(), member.end());
  arena_.insert(arena_.end(), frame.begin(), frame.end());
  place(pos, 0);
  min_frame_size_ = std::min(min_frame_size_, frame.size());
}

void BroadcastQueue::invalidate(std::string_view member) {
  if (index_.empty()) return;
  const std::uint32_t pos = index_[bucket_of(member, hash_key(member))].pos;
  if (pos == kNone) return;
  unplace(pos);
  erase(pos);
  release_if_drained();
}

void BroadcastQueue::append_broadcasts(CompoundWriter& out,
                                       std::size_t per_frame_overhead_base,
                                       std::size_t byte_budget, int n) {
  if (live_ == 0) return;

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
  const auto room = [&] { return used + min_cost <= byte_budget; };
  selected_.clear();
  for (std::size_t t = 0; t < sets_.size() && room(); ++t) {
    const std::vector<std::uint64_t>& words = sets_[t];
    std::uint32_t unseen = counts_[t];
    for (std::size_t w = words.size(); unseen > 0 && room() && w-- > 0;) {
      for (std::uint64_t bits = words[w]; bits != 0 && room();) {
        const int bit = std::bit_width(bits) - 1;  // the newest left
        bits ^= std::uint64_t{1} << bit;
        --unseen;
        const auto pos = static_cast<std::uint32_t>(w * kWordBits + bit);
        const std::span<const std::uint8_t> frame = frame_of(entries_[pos]);
        const std::size_t cost = frame.size() + per_frame_overhead_base +
                                 compound_frame_overhead(frame.size());
        if (used + cost > byte_budget) continue;  // try smaller later frames
        used += cost;
        out.add(frame);
        selected_.push_back(pos);
      }
    }
  }
  total_transmits_ += static_cast<std::int64_t>(selected_.size());

  // Count bumps are applied after the scan, so this pass selected against
  // the counts it started with.
  for (const std::uint32_t pos : selected_) {
    unplace(pos);
    const int transmits = entries_[pos].transmits + 1;
    max_transmits_ = std::max(max_transmits_, transmits);
    if (transmits >= limit) {
      erase(pos);  // reached its retransmit limit
    } else {
      place(pos, transmits);
    }
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
