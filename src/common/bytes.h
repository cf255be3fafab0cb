// Bounds-checked binary buffer reader/writer used by the wire codec.
//
// All multi-byte integers are little-endian. Variable-length integers use
// LEB128 (unsigned). The reader never throws on malformed input: every
// accessor reports failure through ok()/a default value, so the protocol can
// drop garbage datagrams instead of crashing (a membership agent must survive
// arbitrary bytes arriving on its UDP port).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lifeguard {

class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Write into `reuse`'s storage (cleared first) — pairs with the runtime
  /// buffer pool so hot-path encoding reuses delivered datagram capacity.
  explicit BufWriter(std::vector<std::uint8_t> reuse)
      : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void varint(std::uint64_t v);
  /// Length-prefixed (varint) string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> bytes);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> bytes() const { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

  /// Patch a previously written u16/u32 at `offset` (used for length and
  /// count fixups). An out-of-range offset is a no-op.
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  /// The bytes not read yet (zero-copy view into the input).
  std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }

  // Every read is inline: the wire codec parses each received frame field
  // by field, and a call per field would cost more than the read.
  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::uint64_t varint() {
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
  /// Length-prefixed (varint) string, viewed in place: it stays valid only
  /// as long as the input bytes do.
  std::string_view str() {
    const std::uint64_t n = varint();
    if (!require(n)) return {};
    const std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_),
                             n);
    pos_ += n;
    return s;
  }
  /// Returns a subspan of `n` bytes (zero-copy view into the input).
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (!require(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  template <typename T>
  T read_le() {
    if (!require(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  bool require(std::uint64_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace lifeguard
