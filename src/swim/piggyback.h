// Piggyback selection — which gossip frames ride on an outgoing packet.
//
// SWIM piggybacks dissemination updates on failure-detector messages; the
// selection policy is what the Buddy System (paper §IV-C) replaces. The
// default policy simply drains the transmit-limited broadcast queue. The
// buddy policy guarantees that a ping to a member we currently suspect
// carries the suspect message about that member as its first frame — so a
// suspected node learns of the suspicion at the first opportunity and can
// begin refutation sooner — before filling the rest of the budget normally.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "proto/broadcast.h"

namespace lifeguard::swim {

class PiggybackSelector {
 public:
  virtual ~PiggybackSelector() = default;

  /// Appends the frames to piggyback on an outgoing packet to `out`.
  /// `byte_budget` is the remaining room in the packet; `n` the active
  /// cluster size (for retransmit limits); `ping_target` names a ping's
  /// target, and is a null view (data() == nullptr) for any other packet.
  virtual void select(proto::CompoundWriter& out, std::size_t byte_budget,
                      int n, std::string_view ping_target) = 0;
};

/// SWIM's policy: drain the broadcast queue, fewest-transmits first.
class DefaultPiggyback : public PiggybackSelector {
 public:
  explicit DefaultPiggyback(proto::BroadcastQueue& queue) : queue_(queue) {}

  void select(proto::CompoundWriter& out, std::size_t byte_budget, int n,
              std::string_view ping_target) override;

 protected:
  proto::BroadcastQueue& queue_;
};

/// Lifeguard's Buddy System. `priority_frame` returns the encoded suspect
/// message about `target` when the local node currently suspects it.
class BuddyPiggyback : public DefaultPiggyback {
 public:
  using PriorityFrameFn =
      std::function<std::optional<std::vector<std::uint8_t>>(
          std::string_view target)>;

  BuddyPiggyback(proto::BroadcastQueue& queue, PriorityFrameFn priority_frame)
      : DefaultPiggyback(queue), priority_frame_(std::move(priority_frame)) {}

  void select(proto::CompoundWriter& out, std::size_t byte_budget, int n,
              std::string_view ping_target) override;

 private:
  PriorityFrameFn priority_frame_;
};

}  // namespace lifeguard::swim
