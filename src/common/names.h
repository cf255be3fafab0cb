// NameIndex — member names interned to dense ids in interning order, each
// name stored once and never removed — and IdMap, a value per id: the
// membership table and the gossip queue key per-member state by them. Who
// owns an index, why none is global, and how far one grows: DESIGN.md, "One
// name index per simulator". Neither is thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lifeguard {

class NameIndex {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  /// The id of `name`, interning it as the next id when new. Throws
  /// std::length_error once the names outgrow 32-bit offsets.
  Id intern(std::string_view name);
  /// The id of `name`, or kNone; never interns.
  Id find(std::string_view name) const;
  /// The name of `id` (< size()), valid until a new name is interned.
  std::string_view name(Id id) const;
  std::size_t size() const { return ends_.size(); }

 private:
  /// An id and 32 bits of its name's hash; names compare on a hash match.
  struct Bucket {
    Id id = kNone;
    std::uint32_t hash = 0;
  };

  /// Position of `name`'s bucket, or of the empty bucket that ends its probe
  /// run. `buckets_` must be non-empty.
  std::size_t bucket_of(std::string_view name, std::uint32_t hash) const;
  void grow();

  std::string chars_;                ///< every name's bytes, in id order
  std::vector<std::uint32_t> ends_;  ///< one past each name's last byte
  /// Linear probing, power-of-two size, at most half full, no deletion.
  std::vector<Bucket> buckets_;
};

/// A value per NameIndex id, kNone where unset: just the first value set
/// until a second id needs one, then a vector over every id of the index.
/// So a node that knows only itself keeps one value, not n.
class IdMap {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// The value of `id`, or kNone (for NameIndex::kNone too).
  std::uint32_t get(NameIndex::Id id) const {
    const std::size_t at = std::size_t{id} - base_;  // wraps below base_
    return at < values_.size() ? values_[at] : kNone;
  }
  /// The value of `id` (an id of `names`), widened to hold it.
  std::uint32_t& at(NameIndex::Id id, const NameIndex& names);

 private:
  std::size_t base_ = 0;  ///< the id of values_[0]
  std::vector<std::uint32_t> values_;
};

}  // namespace lifeguard
