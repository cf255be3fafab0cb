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

std::uint8_t BufReader::u8() { return read_le<std::uint8_t>(); }
std::uint16_t BufReader::u16() { return read_le<std::uint16_t>(); }
std::uint32_t BufReader::u32() { return read_le<std::uint32_t>(); }
std::uint64_t BufReader::u64() { return read_le<std::uint64_t>(); }

std::uint64_t BufReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (!require(1)) return 0;
    const std::uint8_t b = data_[pos_++];
    if (shift >= 63 && (b & 0x7e) != 0) {  // overflow: >64 significant bits
      ok_ = false;
      return 0;
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::string BufReader::str() {
  const std::uint64_t n = varint();
  if (!require(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::span<const std::uint8_t> BufReader::raw(std::size_t n) {
  if (!require(n)) return {};
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace lifeguard
