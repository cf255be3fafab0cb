// Cluster event reporting.
//
// Every local membership state transition is published on the node's
// EventBus; any number of observers attach with subscribe(), which returns a
// RAII Subscription handle. `originated` distinguishes a *failure event*
// (this node's own suspicion timeout declared the member dead — what the
// paper counts as a false positive when the member is healthy) from mere
// dissemination (applying a gossiped dead). The simulator converts every
// node's events into check::TraceEvents for its attached sinks (which is
// what harness::FailureAccounting counts) and republishes them on one
// cluster-wide bus.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace lifeguard::swim {

enum class EventType : std::uint8_t {
  kJoin = 0,     ///< previously unknown member became alive
  kAlive = 1,    ///< suspicion refuted / member recovered
  kSuspect = 2,  ///< member entered suspect state locally
  kFailed = 3,   ///< member declared dead (failure event)
  kLeft = 4,     ///< graceful leave
};

const char* event_type_name(EventType t);

struct MemberEvent {
  TimePoint at{};
  EventType type = EventType::kJoin;
  std::string member;           ///< who the event is about
  std::string reporter;         ///< node at which the transition happened
  std::string origin;           ///< originator (for suspect/failed gossip)
  std::uint64_t incarnation = 0;
  /// True when this node itself originated the transition (its own probe
  /// failure or suspicion timeout), false when applying received gossip.
  bool originated = false;
};

/// Multi-subscriber event fan-out with RAII unsubscription.
///
/// Thread-safety: subscribe/unsubscribe/publish may race across threads (a
/// UDP cluster publishes from several runtime loop threads); callbacks run
/// on the publishing thread, outside the bus lock. A Subscription outliving
/// its bus is safe (it holds only a weak reference) and vice versa.
/// Invocations of one handler are serialized, and reset()/destruction
/// blocks until any in-flight call of *that* handler (on another thread)
/// returns — so once reset() returns the handler will not run again and its
/// captures may be destroyed. A handler resetting its own subscription does
/// not block on itself. Caveat: do not reset subscription A from inside
/// subscription B's handler while another thread may do the reverse — such
/// crossing barriers can deadlock.
class EventBus {
 public:
  using Handler = std::function<void(const MemberEvent&)>;

  /// RAII handle: destroying (or reset()-ing) it detaches the handler.
  /// Move-only; a default-constructed handle is empty.
  class Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& o) noexcept { *this = std::move(o); }
    Subscription& operator=(Subscription&& o) noexcept {
      if (this != &o) {
        reset();
        state_ = std::move(o.state_);
        id_ = o.id_;
        o.state_.reset();
      }
      return *this;
    }
    ~Subscription() { reset(); }

    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;

    /// Detach now; idempotent.
    void reset();
    /// True while the handler is attached to a live bus.
    bool active() const { return !state_.expired(); }

   private:
    friend class EventBus;
    struct State;
    struct Slot;
    Subscription(std::weak_ptr<State> state, std::uint64_t id)
        : state_(std::move(state)), id_(id) {}
    std::weak_ptr<State> state_;
    std::uint64_t id_ = 0;
  };

  EventBus();

  /// Attach `fn`; it receives every subsequent publish() until the returned
  /// Subscription is destroyed.
  [[nodiscard]] Subscription subscribe(Handler fn);

  /// Deliver `e` to every current subscriber, in subscription order.
  void publish(const MemberEvent& e) const;

  std::size_t subscriber_count() const;

 private:
  std::shared_ptr<Subscription::State> state_;
};

}  // namespace lifeguard::swim
