// A single-node Runtime for swim::Node tests: it records every datagram the
// node sends and runs the node's timers in (time, schedule order).
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/names.h"
#include "common/rng.h"
#include "runtime/runtime.h"

namespace lifeguard {

class RecordingRuntime final : public Runtime {
 public:
  struct Sent {
    TimePoint at;
    Address to;
    std::vector<std::uint8_t> bytes;
    Channel channel;
    bool operator==(const Sent&) const = default;
  };

  TimePoint now() const override { return now_; }
  TimerId schedule(Duration delay, Task fn) override {
    const TimerId id = next_id_++;
    timers_.emplace(std::pair{now_ + std::max(delay, Duration{0}), id},
                    std::move(fn));
    return id;
  }
  void cancel(TimerId id) override { cancelled_.insert(id); }
  void send(const Address& to, std::vector<std::uint8_t> payload,
            Channel channel) override {
    sent.push_back({now_, to, std::move(payload), channel});
    if (on_send) on_send(sent.back());
  }
  Rng& rng() override { return rng_; }
  NameIndex& names() override { return names_; }

  void run_for(Duration d) {
    const TimePoint end = now_ + d;
    while (!timers_.empty() && timers_.begin()->first.first <= end) {
      auto timer = timers_.extract(timers_.begin());
      now_ = timer.key().first;
      if (cancelled_.erase(timer.key().second) == 0) timer.mapped()();
    }
    now_ = end;
  }

  std::vector<Sent> sent;
  /// Called with each datagram as it is recorded, while the node that sends
  /// it is still inside send().
  std::function<void(const Sent&)> on_send;

 private:
  TimePoint now_{};
  Rng rng_{77};
  NameIndex names_;
  TimerId next_id_ = 1;
  std::map<std::pair<TimePoint, TimerId>, Task> timers_;
  std::set<TimerId> cancelled_;
};

}  // namespace lifeguard
