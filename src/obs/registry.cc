#include "obs/registry.h"

namespace lifeguard::obs {

NetMetrics::NetMetrics(Metrics& m, bool per_channel)
    : metrics_(&m),
      msgs_sent_(&m.counter("net.msgs_sent")),
      bytes_sent_(&m.counter("net.bytes_sent")),
      msgs_received_(&m.counter("net.msgs_received")),
      bytes_received_(&m.counter("net.bytes_received")),
      malformed_(&m.counter("net.malformed")) {
  if (!per_channel) return;
  for (const Channel ch : {Channel::kUdp, Channel::kReliable}) {
    sent_ch_[static_cast<std::size_t>(ch)] =
        &m.counter(std::string("net.sent_ch.") + channel_name(ch));
  }
}

void NetMetrics::count_sent(const char* type, std::size_t bytes, Channel ch) {
  msgs_sent_->add();
  bytes_sent_->add(static_cast<std::int64_t>(bytes));
  Counter* type_counter = nullptr;
  for (const auto& [t, c] : sent_type_) {
    if (t == type) {
      type_counter = c;
      break;
    }
  }
  if (type_counter == nullptr) {
    type_counter = &metrics_->counter(std::string("net.sent.") + type);
    sent_type_.emplace_back(type, type_counter);
  }
  type_counter->add();
  if (Counter* by_channel = sent_ch_[static_cast<std::size_t>(ch)]) {
    by_channel->add();
  }
}

void NetMetrics::count_received(std::size_t bytes) {
  msgs_received_->add();
  bytes_received_->add(static_cast<std::int64_t>(bytes));
}

NodeMetrics::NodeMetrics(Metrics& m)
    : NetMetrics(m, true),
      probe_started_(&m.counter("probe.started")),
      probe_indirect_(&m.counter("probe.indirect")),
      probe_failed_(&m.counter("probe.failed")),
      probe_missed_nack_(&m.counter("probe.missed_nack")),
      probe_acked_(&m.counter("probe.acked")),
      probe_success_(&m.counter("probe.success")),
      probe_nack_received_(&m.counter("probe.nack_received")),
      probe_relayed_(&m.counter("probe.relayed")),
      probe_nack_sent_(&m.counter("probe.nack_sent")),
      probe_misrouted_ping_(&m.counter("probe.misrouted_ping")),
      probe_stale_ack_(&m.counter("probe.stale_ack")),
      probe_ack_forwarded_(&m.counter("probe.ack_forwarded")),
      probe_rtt_us_(&m.histogram("probe.rtt_us")),
      join_learned_(&m.counter("swim.join_learned")),
      refuted_(&m.counter("swim.refuted")),
      resurrected_(&m.counter("swim.resurrected")),
      dead_declared_(&m.counter("swim.dead_declared")),
      dead_learned_(&m.counter("swim.dead_learned")),
      left_learned_(&m.counter("swim.left_learned")),
      refuted_death_(&m.counter("swim.refuted_death")),
      refutations_(&m.counter("swim.refutations")),
      leaves_(&m.counter("swim.leave")),
      reclaimed_(&m.counter("swim.reclaimed")),
      buddy_prioritized_(&m.counter("buddy.prioritized")),
      suspicion_started_(&m.counter("suspicion.started")),
      suspicion_confirmed_(&m.counter("suspicion.confirmed")),
      suspicion_confirmations_at_death_(
          &m.histogram("suspicion.confirmations_at_death")),
      suspicion_lifetime_s_(&m.histogram("suspicion.lifetime_s")),
      sync_received_(&m.counter("sync.received")),
      reconnect_attempts_(&m.counter("sync.reconnect_attempts")) {}

DetectionMetrics::DetectionMetrics(Metrics& m)
    : NetMetrics(m, false),
      heartbeat_sent_(&m.counter("detect.heartbeat_sent")),
      heartbeat_missed_(&m.counter("detect.heartbeat_missed")),
      coordinator_rtt_us_(&m.histogram("detect.coordinator_rtt_us")) {}

}  // namespace lifeguard::obs
