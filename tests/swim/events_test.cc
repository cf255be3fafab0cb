// EventBus: multi-subscriber fan-out with RAII unsubscription.
#include "swim/events.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace lifeguard::swim {
namespace {

MemberEvent event_about(const std::string& member) {
  MemberEvent e;
  e.type = EventType::kSuspect;
  e.member = member;
  return e;
}

TEST(EventBus, DeliversToEverySubscriberInOrder) {
  EventBus bus;
  std::vector<int> order;
  auto a = bus.subscribe([&](const MemberEvent&) { order.push_back(1); });
  auto b = bus.subscribe([&](const MemberEvent&) { order.push_back(2); });
  bus.publish(event_about("x"));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(bus.subscriber_count(), 2u);
}

TEST(EventBus, DestroyingSubscriptionDetaches) {
  EventBus bus;
  int count = 0;
  {
    auto sub = bus.subscribe([&](const MemberEvent&) { ++count; });
    bus.publish(event_about("x"));
    EXPECT_EQ(count, 1);
  }
  bus.publish(event_about("y"));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(EventBus, ResetDetachesAndIsIdempotent) {
  EventBus bus;
  int count = 0;
  auto sub = bus.subscribe([&](const MemberEvent&) { ++count; });
  EXPECT_TRUE(sub.active());
  sub.reset();
  sub.reset();
  EXPECT_FALSE(sub.active());
  bus.publish(event_about("x"));
  EXPECT_EQ(count, 0);
}

TEST(EventBus, MoveTransfersOwnership) {
  EventBus bus;
  int count = 0;
  auto a = bus.subscribe([&](const MemberEvent&) { ++count; });
  EventBus::Subscription b = std::move(a);
  bus.publish(event_about("x"));
  EXPECT_EQ(count, 1);
  // Moving onto an attached handle detaches its old subscription first.
  b = bus.subscribe([&](const MemberEvent&) { count += 10; });
  bus.publish(event_about("y"));
  EXPECT_EQ(count, 11);
  EXPECT_EQ(bus.subscriber_count(), 1u);
}

TEST(EventBus, SubscriptionOutlivingBusIsSafe) {
  EventBus::Subscription sub;
  {
    EventBus bus;
    sub = bus.subscribe([](const MemberEvent&) {});
    EXPECT_TRUE(sub.active());
  }
  EXPECT_FALSE(sub.active());
  sub.reset();  // no-op, no crash
}

TEST(EventBus, SubscriberMayUnsubscribeItselfDuringPublish) {
  EventBus bus;
  int count = 0;
  EventBus::Subscription sub;
  sub = bus.subscribe([&](const MemberEvent&) {
    ++count;
    sub.reset();
  });
  bus.publish(event_about("x"));
  bus.publish(event_about("y"));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(EventBus, CrossThreadResetWaitsForInFlightPublish) {
  // After reset() returns on another thread, the handler must never run
  // again — this is what makes destroying captures safe on the UDP backend.
  EventBus bus;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) bus.publish(MemberEvent{});
  });

  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> count{0};
    auto sub = bus.subscribe([&count](const MemberEvent&) { ++count; });
    while (count.load() == 0 && !stop.load()) std::this_thread::yield();
    sub.reset();
    const std::int64_t at_reset = count.load();
    // Give the publisher time to (incorrectly) call a detached handler.
    for (int i = 0; i < 100; ++i) std::this_thread::yield();
    EXPECT_EQ(count.load(), at_reset) << "handler ran after reset()";
  }
  stop = true;
  publisher.join();
}

}  // namespace
}  // namespace lifeguard::swim
