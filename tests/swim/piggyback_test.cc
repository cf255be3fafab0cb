// Piggyback selection, including the Buddy System's guaranteed suspect
// notification (paper §IV-C).
#include "swim/piggyback.h"

#include <gtest/gtest.h>

#include "proto/wire.h"

namespace lifeguard::swim {
namespace {

std::vector<std::uint8_t> suspect_frame(const std::string& member) {
  BufWriter w;
  proto::encode(proto::Suspect{member, 1, "me"}, w);
  return std::move(w).take();
}

/// The frames `pb` appends to an empty datagram, in order.
std::vector<std::vector<std::uint8_t>> select(PiggybackSelector& pb,
                                              std::size_t byte_budget, int n,
                                              std::string_view ping_target) {
  proto::CompoundWriter out;
  pb.select(out, byte_budget, n, ping_target);
  std::vector<std::span<const std::uint8_t>> spans;
  EXPECT_TRUE(proto::unpack_compound(out.wrapped(), spans));
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto f : spans) frames.emplace_back(f.begin(), f.end());
  return frames;
}

TEST(DefaultPiggyback, DrainsQueue) {
  proto::BroadcastQueue q(4);
  q.queue("a", suspect_frame("a"));
  DefaultPiggyback pb(q);
  auto frames = select(pb, 1000, 10, {});
  EXPECT_EQ(frames.size(), 1u);
}

TEST(DefaultPiggyback, IgnoresPingTarget) {
  proto::BroadcastQueue q(4);
  DefaultPiggyback pb(q);
  const std::string target = "t";
  EXPECT_TRUE(select(pb, 1000, 10, target).empty());
}

TEST(BuddyPiggyback, PrependsSuspectFrameForPingTarget) {
  proto::BroadcastQueue q(4);
  q.queue("other", suspect_frame("other"));
  int priority_calls = 0;
  BuddyPiggyback pb(q, [&](std::string_view t)
                           -> std::optional<std::vector<std::uint8_t>> {
    ++priority_calls;
    if (t == "suspected") return suspect_frame("suspected");
    return std::nullopt;
  });

  const std::string target = "suspected";
  auto frames = select(pb, 1000, 10, target);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(priority_calls, 1);
  // The buddy frame must come FIRST so the target refutes before acking.
  BufReader r(frames[0]);
  const auto msg = proto::decode(r);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<proto::Suspect>(*msg).member, "suspected");
}

TEST(BuddyPiggyback, NoPriorityFrameForUnsuspectedTarget) {
  proto::BroadcastQueue q(4);
  BuddyPiggyback pb(q, [](std::string_view)
                           -> std::optional<std::vector<std::uint8_t>> {
    return std::nullopt;
  });
  const std::string target = "healthy";
  EXPECT_TRUE(select(pb, 1000, 10, target).empty());
}

TEST(BuddyPiggyback, NonPingPacketsSkipPriority) {
  proto::BroadcastQueue q(4);
  int calls = 0;
  BuddyPiggyback pb(q, [&](std::string_view)
                           -> std::optional<std::vector<std::uint8_t>> {
    ++calls;
    return std::nullopt;
  });
  (void)select(pb, 1000, 10, {});
  EXPECT_EQ(calls, 0);
}

TEST(BuddyPiggyback, PriorityFrameRespectsBudget) {
  proto::BroadcastQueue q(4);
  BuddyPiggyback pb(q, [](std::string_view t)
                           -> std::optional<std::vector<std::uint8_t>> {
    return std::vector<std::uint8_t>(100, 0);
    (void)t;
  });
  const std::string target = "t";
  // Budget too small for the 100-byte priority frame: dropped gracefully.
  EXPECT_TRUE(select(pb, 20, 10, target).empty());
}

TEST(BuddyPiggyback, GuaranteedEvenWhenQueueSaturated) {
  // The paper's point: normal gossip selection might starve the suspect
  // notification; buddy must include it regardless of queue pressure.
  proto::BroadcastQueue q(4);
  for (int i = 0; i < 50; ++i) {
    q.queue("m" + std::to_string(i),
            std::vector<std::uint8_t>(40, static_cast<std::uint8_t>(i)));
  }
  BuddyPiggyback pb(q, [](std::string_view t)
                           -> std::optional<std::vector<std::uint8_t>> {
    return suspect_frame(std::string(t));
  });
  const std::string target = "victim";
  auto frames = select(pb, 200, 128, target);
  ASSERT_FALSE(frames.empty());
  BufReader r(frames[0]);
  const auto msg = proto::decode(r);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<proto::Suspect>(*msg).member, "victim");
}

}  // namespace
}  // namespace lifeguard::swim
