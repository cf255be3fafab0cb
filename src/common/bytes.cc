#include "common/bytes.h"

namespace lifeguard {

void BufWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BufWriter::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BufWriter::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BufWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) return;
  buf_[offset] = static_cast<std::uint8_t>(v);
  buf_[offset + 1] = static_cast<std::uint8_t>(v >> 8);
}

void BufWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) return;
  for (std::size_t i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace lifeguard
