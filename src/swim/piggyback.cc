#include "swim/piggyback.h"

#include "proto/wire.h"

namespace lifeguard::swim {

void DefaultPiggyback::select(proto::CompoundWriter& out,
                              std::size_t byte_budget, int n,
                              std::string_view /*ping_target*/) {
  queue_.append_broadcasts(out, 0, byte_budget, n);
}

void BuddyPiggyback::select(proto::CompoundWriter& out,
                            std::size_t byte_budget, int n,
                            std::string_view ping_target) {
  std::size_t used = 0;
  if (ping_target.data() != nullptr) {
    if (auto frame = priority_frame_(ping_target)) {
      const std::size_t cost =
          frame->size() + proto::compound_frame_overhead(frame->size());
      if (cost <= byte_budget) {
        out.add(*frame);
        used = cost;
      }
    }
  }
  queue_.append_broadcasts(out, 0, byte_budget - used, n);
}

}  // namespace lifeguard::swim
