// Checked narrowing of integers read at an input boundary (scenario files,
// traces, live control lines): a value the destination cannot hold is an
// error naming its field, never a silent wrap.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace lifeguard {

/// Stores `v` in `out` when T can represent it. Otherwise leaves `out`
/// untouched, sets `error` to name `field`, the value and T's range, and
/// returns false.
template <std::integral T>
bool narrow(std::int64_t v, std::string_view field, T& out,
            std::string& error) {
  if (!std::in_range<T>(v)) {
    error = "field '" + std::string(field) + "' (" + std::to_string(v) +
            ") is out of range [" +
            std::to_string(std::numeric_limits<T>::min()) + ", " +
            std::to_string(std::numeric_limits<T>::max()) + "]";
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

}  // namespace lifeguard
