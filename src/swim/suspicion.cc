#include "swim/suspicion.h"

#include <algorithm>
#include <cmath>

namespace lifeguard::swim {

Duration suspicion_timeout(Duration min, Duration max, int k, int c) {
  if (c < 0) c = 0;
  if (k <= 0 || max <= min) return std::max(min, max);
  const double frac =
      std::log(static_cast<double>(c) + 1.0) / std::log(static_cast<double>(k) + 1.0);
  const double span = static_cast<double>((max - min).us);
  const auto reduced = Duration{max.us - static_cast<std::int64_t>(span * frac)};
  return std::max(min, reduced);
}

Duration suspicion_min(double alpha, int n, Duration probe_interval) {
  const double scale =
      std::max(1.0, std::log10(std::max(1.0, static_cast<double>(n))));
  return probe_interval.scaled(alpha * scale);
}

Suspicion::Suspicion(std::string member, std::uint64_t incarnation,
                     std::string first_from, Duration min, Duration max, int k,
                     TimePoint start)
    : member_(std::move(member)),
      incarnation_(incarnation),
      min_(min),
      max_(max),
      k_(k),
      start_(start) {
  seen_from_.insert(std::move(first_from));
}

bool Suspicion::confirm(std::string_view from) {
  if (confirmation_count_ >= k_) return false;
  if (seen_from_.contains(from)) return false;
  seen_from_.emplace(from);
  ++confirmation_count_;
  return true;
}

Duration Suspicion::timeout() const {
  return suspicion_timeout(min_, max_, k_, confirmation_count_);
}

}  // namespace lifeguard::swim
