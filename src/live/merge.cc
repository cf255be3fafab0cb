#include "live/merge.h"

#include <limits>

namespace lifeguard::live {

int TraceMerger::open_stream() {
  const int id = static_cast<int>(watermarks_.size());
  watermarks_.push_back(TimePoint{0});
  open_.push_back(true);
  return id;
}

void TraceMerger::push(int stream, check::TraceEvent e) {
  if (stream < 0 || stream >= static_cast<int>(open_.size()) ||
      !open_[static_cast<std::size_t>(stream)]) {
    return;
  }
  auto& wm = watermarks_[static_cast<std::size_t>(stream)];
  if (e.at < wm) e.at = wm;  // clamp: per-stream order is an invariant
  wm = e.at;
  heap_.push(Entry{e, stream, next_seq_++});
  flush();
}

void TraceMerger::advance(int stream, TimePoint t) {
  if (stream < 0 || stream >= static_cast<int>(open_.size()) ||
      !open_[static_cast<std::size_t>(stream)]) {
    return;
  }
  auto& wm = watermarks_[static_cast<std::size_t>(stream)];
  if (t > wm) {
    wm = t;
    flush();
  }
}

void TraceMerger::close_stream(int stream) {
  if (stream < 0 || stream >= static_cast<int>(open_.size())) return;
  if (!open_[static_cast<std::size_t>(stream)]) return;
  open_[static_cast<std::size_t>(stream)] = false;
  flush();
}

void TraceMerger::finish() {
  for (std::size_t i = 0; i < open_.size(); ++i) open_[i] = false;
  flush();
}

TimePoint TraceMerger::global_watermark() const {
  TimePoint min{std::numeric_limits<std::int64_t>::max()};
  bool any_open = false;
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (!open_[i]) continue;
    any_open = true;
    if (watermarks_[i] < min) min = watermarks_[i];
  }
  // No stream still bounds the merge — everything buffered is releasable.
  if (!any_open) return TimePoint{std::numeric_limits<std::int64_t>::max()};
  return min;
}

void TraceMerger::flush() {
  const TimePoint wm = global_watermark();
  while (!heap_.empty() && heap_.top().event.at <= wm) {
    emit(heap_.top().event);
    heap_.pop();
  }
}

void TraceMerger::emit(const check::TraceEvent& e) {
  ++emitted_;
  check::publish(sinks_, e);
}

}  // namespace lifeguard::live
