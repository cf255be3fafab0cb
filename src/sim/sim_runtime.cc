#include "sim/sim_runtime.h"

#include <utility>

#include "sim/simulator.h"

namespace lifeguard::sim {

SimRuntime::SimRuntime(Simulator& sim, int node_index, Address addr, Rng rng,
                       Duration msg_proc_cost, std::size_t recv_buffer_bytes)
    : sim_(sim),
      node_(node_index),
      addr_(addr),
      rng_(rng),
      msg_proc_cost_(msg_proc_cost),
      recv_buffer_limit_(recv_buffer_bytes) {}

void SimRuntime::attach(PacketHandler* handler,
                        std::function<void()> on_unblock) {
  handler_ = handler;
  on_unblock_ = std::move(on_unblock);
}

TimePoint SimRuntime::now() const { return sim_.now(); }

TimerId SimRuntime::schedule(Duration delay, Task fn) {
  if (delay < Duration{0}) delay = Duration{0};
  return sim_.queue().push(sim_.now() + delay, std::move(fn));
}

void SimRuntime::cancel(TimerId id) { sim_.queue().cancel(id); }

void SimRuntime::send(const Address& to, std::vector<std::uint8_t> payload,
                      Channel channel) {
  if (blocked_) {
    // Goroutine stuck in sendto(): the packet leaves when we unblock.
    pending_out_.push_back(PendingPacket{to, std::move(payload), channel});
    return;
  }
  sim_.route(node_, to, std::move(payload), channel);
}

std::vector<std::uint8_t> SimRuntime::acquire_buffer() {
  return sim_.acquire_buffer();
}

NameIndex& SimRuntime::names() { return sim_.names(); }

void SimRuntime::deliver(const Address& from,
                         std::vector<std::uint8_t> payload, Channel channel) {
  if (!blocked_ && pending_in_.empty()) {
    // Healthy fast path: no backlog, process immediately; the spent buffer's
    // capacity feeds the next outbound datagram.
    if (handler_ != nullptr) handler_->on_packet(from, payload, channel);
    sim_.recycle_buffer(std::move(payload));
    return;
  }
  // Either blocked (process not reading) or a backlog exists (FIFO order
  // must hold). UDP is bounded like a real socket buffer — overflow is
  // dropped, which is how a refutation that arrives late in a long anomaly
  // can be lost for good. TCP is flow-controlled: never dropped here.
  if (channel == Channel::kUdp &&
      pending_in_bytes_ + payload.size() > recv_buffer_limit_) {
    ++inbound_dropped_;
    return;
  }
  pending_in_bytes_ += payload.size();
  pending_in_.push_back(PendingPacket{from, std::move(payload), channel});
  schedule_drain();
}

void SimRuntime::schedule_drain() {
  if (drain_scheduled_ || blocked_ || pending_in_.empty()) return;
  drain_scheduled_ = true;
  // Each backlogged message costs CPU time to handle; while blocked the
  // drain pauses and resumes at the next unblock.
  sim_.queue().push(sim_.now() + msg_proc_cost_, [this] { drain_one(); });
}

void SimRuntime::drain_one() {
  drain_scheduled_ = false;
  if (blocked_ || pending_in_.empty()) return;
  PendingPacket p = std::move(pending_in_.front());
  pending_in_.pop_front();
  pending_in_bytes_ -= p.payload.size();
  if (handler_ != nullptr) handler_->on_packet(p.peer, p.payload, p.channel);
  sim_.recycle_buffer(std::move(p.payload));
  schedule_drain();
}

void SimRuntime::reset_on_crash() {
  blocked_ = false;
  for (PendingPacket& p : pending_out_) sim_.recycle_buffer(std::move(p.payload));
  pending_out_.clear();
  for (PendingPacket& p : pending_in_) sim_.recycle_buffer(std::move(p.payload));
  pending_in_.clear();
  pending_in_bytes_ = 0;
}

void SimRuntime::set_blocked(bool blocked) {
  if (blocked == blocked_) return;
  blocked_ = blocked;
  if (blocked_) return;

  // Anomaly over: notify the node first (the stuck goroutines resume —
  // deferred probe stages, pending ticks), then flush the stuck sends, then
  // resume draining the inbound backlog at the processing rate.
  if (on_unblock_) on_unblock_();
  while (!pending_out_.empty() && !blocked_) {
    PendingPacket p = std::move(pending_out_.front());
    pending_out_.pop_front();
    sim_.route(node_, p.peer, std::move(p.payload), p.channel);
  }
  schedule_drain();
}

}  // namespace lifeguard::sim
