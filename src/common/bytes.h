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

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  std::string str();
  /// Returns a subspan of `n` bytes (zero-copy view into the input).
  std::span<const std::uint8_t> raw(std::size_t n);

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

  bool require(std::size_t n) {
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
