// Transmit-limited broadcast queue invariants.
#include "proto/broadcast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "proto/wire.h"

namespace lifeguard::proto {
namespace {

std::vector<std::uint8_t> frame(char tag, std::size_t len = 8) {
  return std::vector<std::uint8_t>(len, static_cast<std::uint8_t>(tag));
}

TEST(RetransmitLimit, MatchesFormula) {
  // λ·⌈log10(n+1)⌉
  EXPECT_EQ(retransmit_limit(4, 0), 4);
  EXPECT_EQ(retransmit_limit(4, 9), 4);
  EXPECT_EQ(retransmit_limit(4, 10), 8);     // log10(11) -> ceil = 2
  EXPECT_EQ(retransmit_limit(4, 99), 8);
  EXPECT_EQ(retransmit_limit(4, 128), 12);   // ceil(log10(129)) = 3
  EXPECT_EQ(retransmit_limit(3, 128), 9);
  EXPECT_EQ(retransmit_limit(4, 6000), 16);  // ceil(log10(6001)) = 4
}

TEST(BroadcastQueue, DrainsToTransmitLimit) {
  BroadcastQueue q(1);  // limit = 1·ceil(log10(n+1))
  q.queue("m", frame('a'));
  const int n = 128;  // limit 3
  int handed_out = 0;
  for (int i = 0; i < 10; ++i) {
    handed_out += static_cast<int>(q.get_broadcasts(0, 1000, n).size());
  }
  EXPECT_EQ(handed_out, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_transmits(), 3);
}

TEST(BroadcastQueue, NewUpdateInvalidatesOld) {
  BroadcastQueue q(4);
  q.queue("m", frame('a'));
  q.queue("m", frame('b'));  // supersedes 'a'
  EXPECT_EQ(q.pending(), 1u);
  auto out = q.get_broadcasts(0, 1000, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'b');
}

TEST(BroadcastQueue, InvalidateRemoves) {
  BroadcastQueue q(4);
  q.queue("m1", frame('a'));
  q.queue("m2", frame('b'));
  q.invalidate("m1");
  EXPECT_EQ(q.pending(), 1u);
  auto out = q.get_broadcasts(0, 1000, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'b');
}

TEST(BroadcastQueue, PrefersFewestTransmits) {
  BroadcastQueue q(4);  // n=128 -> limit 12, won't exhaust here
  q.queue("old", frame('o'));
  // Transmit 'old' twice with a tiny budget that fits only one frame.
  const std::size_t budget = 10;
  (void)q.get_broadcasts(0, budget, 128);
  (void)q.get_broadcasts(0, budget, 128);
  q.queue("new", frame('n'));
  // The never-transmitted 'new' frame must now win the single slot.
  auto out = q.get_broadcasts(0, budget, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'n');
}

TEST(BroadcastQueue, TiesBrokenNewestFirst) {
  BroadcastQueue q(4);
  q.queue("a", frame('a'));
  q.queue("b", frame('b'));  // same transmit count (0), newer
  auto out = q.get_broadcasts(0, 10, 128);  // budget fits one
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'b');
}

TEST(BroadcastQueue, RespectsByteBudget) {
  BroadcastQueue q(4);
  q.queue("big", frame('B', 500));
  q.queue("small", frame('s', 10));
  // Budget fits the small frame only; the big one is skipped, not dropped.
  auto out = q.get_broadcasts(0, 50, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 's');
  EXPECT_EQ(q.pending(), 2u);  // both still queued (small not at limit)
}

TEST(BroadcastQueue, SkipsOversizedButPacksLaterFrames) {
  BroadcastQueue q(4);
  q.queue("a", frame('a', 100));
  q.queue("b", frame('b', 100));
  q.queue("c", frame('c', 10));
  // Budget fits one 100-byte frame plus the 10-byte one.
  auto out = q.get_broadcasts(0, 120, 128);
  ASSERT_EQ(out.size(), 2u);
}

TEST(BroadcastQueue, PerFrameOverheadCounted) {
  BroadcastQueue q(4);
  q.queue("a", frame('a', 10));
  // frame(10) + overhead base 5 + varint(1) = 16 > budget 15 -> nothing fits.
  auto out = q.get_broadcasts(5, 15, 128);
  EXPECT_TRUE(out.empty());
  out = q.get_broadcasts(5, 16, 128);
  EXPECT_EQ(out.size(), 1u);
}

TEST(BroadcastQueue, EveryQueuedFrameEventuallyTransmitsExactlyLimitTimes) {
  // Property over a batch: with ample budget, each of k frames is handed out
  // exactly `limit` times, no more, no matter how often we drain.
  BroadcastQueue q(2);
  const int n = 50;  // limit = 2·ceil(log10(51)) = 4
  const int limit = retransmit_limit(2, n);
  std::map<char, int> counts;
  for (char c = 'a'; c < 'a' + 10; ++c) q.queue(std::string(1, c), frame(c));
  for (int round = 0; round < 100; ++round) {
    for (const auto& f : q.get_broadcasts(0, 10'000, n)) ++counts[static_cast<char>(f[0])];
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [tag, cnt] : counts) {
    EXPECT_EQ(cnt, limit) << tag;
  }
  EXPECT_TRUE(q.empty());
}

// ---- oracle: the rank-ordered map the per-count lists replaced -----------

/// The earlier implementation, kept as the reference the queue must match
/// frame for frame: entries in a std::map ordered by (transmits ascending,
/// enqueue id descending), each bump an extract and re-insert.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(int retransmit_mult)
      : retransmit_mult_(retransmit_mult) {}

  void queue(const std::string& member, std::vector<std::uint8_t> frame) {
    invalidate(member);
    const Rank rank{0, next_id_++};
    by_key_[member] = rank;
    entries_.emplace(rank, Entry{member, std::move(frame)});
  }

  void invalidate(const std::string& member) {
    const auto it = by_key_.find(member);
    if (it == by_key_.end()) return;
    entries_.erase(it->second);
    by_key_.erase(it);
  }

  std::vector<std::vector<std::uint8_t>> get_broadcasts(
      std::size_t per_frame_overhead_base, std::size_t byte_budget, int n) {
    std::vector<std::vector<std::uint8_t>> out;
    const int limit = retransmit_limit(retransmit_mult_, n);
    std::size_t used = 0;
    std::vector<std::map<Rank, Entry, RankLess>::iterator> selected;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const std::size_t size = it->second.frame.size();
      const std::size_t cost =
          size + per_frame_overhead_base + compound_frame_overhead(size);
      if (used + cost > byte_budget) continue;
      used += cost;
      out.push_back(it->second.frame);
      ++total_transmits_;
      max_transmits_ = std::max(max_transmits_, it->first.transmits + 1);
      selected.push_back(it);
    }
    for (auto it : selected) {
      auto node = entries_.extract(it);
      node.key().transmits += 1;
      if (node.key().transmits >= limit) {
        by_key_.erase(node.mapped().key);
        continue;
      }
      by_key_[node.mapped().key] = node.key();
      entries_.insert(std::move(node));
    }
    return out;
  }

  std::size_t pending() const { return entries_.size(); }
  std::int64_t total_transmits() const { return total_transmits_; }
  int max_transmits() const { return max_transmits_; }

 private:
  struct Rank {
    int transmits = 0;
    std::uint64_t enqueue_id = 0;
  };
  struct RankLess {
    bool operator()(const Rank& a, const Rank& b) const {
      if (a.transmits != b.transmits) return a.transmits < b.transmits;
      return a.enqueue_id > b.enqueue_id;
    }
  };
  struct Entry {
    std::string key;
    std::vector<std::uint8_t> frame;
  };

  int retransmit_mult_;
  std::uint64_t next_id_ = 1;
  std::int64_t total_transmits_ = 0;
  int max_transmits_ = 0;
  std::map<Rank, Entry, RankLess> entries_;
  std::unordered_map<std::string, Rank> by_key_;
};

/// Random frame whose size straddles the one/two-byte length prefix, so
/// large frames get skipped while smaller later ones still fit.
std::vector<std::uint8_t> random_frame(Rng& rng) {
  const std::size_t size = rng.uniform(4) == 0
                               ? static_cast<std::size_t>(rng.uniform_range(100, 400))
                               : static_cast<std::size_t>(rng.uniform_range(1, 60));
  std::vector<std::uint8_t> f(size);
  for (auto& b : f) b = static_cast<std::uint8_t>(rng.next_u64());
  return f;
}

/// The queue and the reference agree on everything observable besides the
/// frames themselves.
::testing::AssertionResult SameState(const BroadcastQueue& q,
                                     const ReferenceQueue& ref) {
  if (q.pending() != ref.pending() || q.empty() != (ref.pending() == 0) ||
      q.total_transmits() != ref.total_transmits() ||
      q.max_transmits() != ref.max_transmits()) {
    return ::testing::AssertionFailure()
           << "pending " << q.pending() << " vs " << ref.pending()
           << ", total_transmits " << q.total_transmits() << " vs "
           << ref.total_transmits() << ", max_transmits "
           << q.max_transmits() << " vs " << ref.max_transmits();
  }
  return ::testing::AssertionSuccess();
}

/// One selection on both queues, through get_broadcasts or (`writer`) the
/// CompoundWriter path, where frames land behind what the datagram already
/// holds, byte for byte as pack_compound would lay them out.
::testing::AssertionResult SameSelection(BroadcastQueue& q,
                                         ReferenceQueue& ref,
                                         std::size_t base,
                                         std::size_t budget, int n,
                                         bool writer) {
  if (!writer) {
    const auto got = q.get_broadcasts(base, budget, n);
    const auto want = ref.get_broadcasts(base, budget, n);
    if (got != want) {
      return ::testing::AssertionFailure()
             << "selected " << got.size() << " frames, reference "
             << want.size();
    }
    return ::testing::AssertionSuccess();
  }
  const std::vector<std::uint8_t> lead{9, 9, 9};
  CompoundWriter w;
  w.add(lead);
  q.append_broadcasts(w, base, budget, n);
  auto want = ref.get_broadcasts(base, budget, n);
  want.insert(want.begin(), lead);
  if (std::move(w).take() != pack_compound(want)) {
    return ::testing::AssertionFailure()
           << "datagram differs from the reference's " << want.size() - 1
           << " frames";
  }
  return ::testing::AssertionSuccess();
}

TEST(BroadcastQueueOracle, MatchesTheRankOrderedMapOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int mult = static_cast<int>(rng.uniform_range(1, 4));
    BroadcastQueue q(mult);
    ReferenceQueue ref(mult);
    int n = static_cast<int>(rng.uniform_range(1, 20));
    int drains = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.uniform(100);
      if (op < 40) {
        const std::string key = "m" + std::to_string(rng.uniform(48));
        auto frame = random_frame(rng);
        q.queue(key, frame);
        ref.queue(key, std::move(frame));
      } else if (op < 46) {
        const std::string key = "m" + std::to_string(rng.uniform(48));
        q.invalidate(key);
        ref.invalidate(key);
      } else if (op < 50) {
        // The cluster grows or shrinks, moving the retransmit limit under
        // entries already counted past the new limit.
        n = static_cast<int>(rng.uniform_range(1, 2000));
      } else if (op < 52) {
        // Drain to empty with an ample budget, then keep refilling.
        for (int round = 0; ref.pending() > 0; ++round) {
          ASSERT_LT(round, 100);
          ASSERT_TRUE(SameSelection(q, ref, 0, 1'000'000, n, false));
        }
        ++drains;
      } else {
        const std::size_t base = rng.uniform(3) == 0 ? 2 : 0;
        const auto budget = static_cast<std::size_t>(rng.uniform(700));
        ASSERT_TRUE(SameSelection(q, ref, base, budget, n,
                                  rng.uniform(2) == 0))
            << "step " << step;
      }
      ASSERT_TRUE(SameState(q, ref)) << "step " << step;
    }
    EXPECT_GT(drains, 0);
  }
}

TEST(BroadcastQueueOracle, MatchesAtJoinStormDepth) {
  // A join storm at n=512: every member's Alive (20-60 bytes) is queued,
  // MTU-sized datagrams carry a few dozen of them, and bursts of
  // refutations requeue hundreds of keys, so holes keep filling half the
  // position space and the queue compacts again and again.
  constexpr int kKeys = 600;
  constexpr int kN = 512;
  constexpr std::size_t kBudget = 1400;
  const auto alive_frame = [](Rng& rng) {
    std::vector<std::uint8_t> f(
        static_cast<std::size_t>(rng.uniform_range(20, 60)));
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.next_u64());
    return f;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    BroadcastQueue q(4);
    ReferenceQueue ref(4);
    const auto queue_both = [&](std::uint64_t member) {
      const std::string key = "node-" + std::to_string(member);
      auto frame = alive_frame(rng);
      q.queue(key, frame);
      ref.queue(key, std::move(frame));
    };
    for (int i = 0; i < kKeys; ++i) queue_both(static_cast<std::uint64_t>(i));
    int bursts = 0;
    int refills = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.uniform(100);
      if (op < 8) {
        const auto burst = rng.uniform_range(kKeys / 4, kKeys);
        for (std::int64_t i = 0; i < burst; ++i) queue_both(rng.uniform(kKeys));
        ++bursts;
      } else if (op < 12) {
        const std::string key = "node-" + std::to_string(rng.uniform(kKeys));
        q.invalidate(key);
        ref.invalidate(key);
      } else if (op < 13) {
        // Drain with datagram-sized selections, then the next storm.
        for (int round = 0; ref.pending() > 0; ++round) {
          ASSERT_LT(round, 10'000);
          ASSERT_TRUE(SameSelection(q, ref, 0, kBudget, kN, false));
          ASSERT_TRUE(SameState(q, ref)) << "round " << round;
        }
        for (int i = 0; i < kKeys; ++i) {
          queue_both(static_cast<std::uint64_t>(i));
        }
        ++refills;
      } else {
        const std::size_t base = rng.uniform(2) == 0 ? 0 : 2;
        ASSERT_TRUE(SameSelection(q, ref, base, kBudget, kN,
                                  rng.uniform(2) == 0))
            << "step " << step;
      }
      ASSERT_TRUE(SameState(q, ref)) << "step " << step;
    }
    EXPECT_GT(bursts, 0);
    EXPECT_GT(refills, 0);
  }
}

}  // namespace
}  // namespace lifeguard::proto
