#include "common/names.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace lifeguard {

static std::uint32_t hash_name(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

std::string_view NameIndex::name(Id id) const {
  const std::uint32_t begin = id == 0 ? 0 : ends_[id - 1];
  return std::string_view(chars_).substr(begin, ends_[id] - begin);
}

std::size_t NameIndex::bucket_of(std::string_view name,
                                 std::uint32_t hash) const {
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Bucket& b = buckets_[i];
    if (b.id == kNone || (b.hash == hash && this->name(b.id) == name)) {
      return i;
    }
  }
}

void NameIndex::grow() {
  const std::size_t capacity = std::max<std::size_t>(16, 2 * buckets_.size());
  const std::vector<Bucket> old =
      std::exchange(buckets_, std::vector<Bucket>(capacity));
  for (const Bucket& b : old) {
    if (b.id != kNone) buckets_[bucket_of(this->name(b.id), b.hash)] = b;
  }
}

NameIndex::Id NameIndex::find(std::string_view name) const {
  if (buckets_.empty()) return kNone;
  return buckets_[bucket_of(name, hash_name(name))].id;
}

NameIndex::Id NameIndex::intern(std::string_view name) {
  if (const Id known = find(name); known != kNone) return known;
  if (chars_.size() + name.size() > UINT32_MAX || size() >= kNone) {
    throw std::length_error("name index exceeds 32-bit offsets");
  }
  if (2 * (size() + 1) > buckets_.size()) grow();
  const std::uint32_t hash = hash_name(name);
  buckets_[bucket_of(name, hash)] = Bucket{static_cast<Id>(size()), hash};
  chars_.append(name);
  ends_.push_back(static_cast<std::uint32_t>(chars_.size()));
  return static_cast<Id>(size() - 1);
}

std::uint32_t& IdMap::at(NameIndex::Id id, const NameIndex& names) {
  if (values_.empty()) {
    base_ = id;
    values_.push_back(kNone);
  } else if (std::size_t{id} - base_ >= values_.size()) {
    if (base_ != 0) {  // the lone first value moves into a span from id 0
      std::vector<std::uint32_t> all(names.size(), kNone);
      all[base_] = values_.front();
      values_ = std::move(all);
      base_ = 0;
    } else {
      values_.resize(names.size(), kNone);
    }
  }
  return values_[id - base_];
}

}  // namespace lifeguard
