// Compound (piggyback container) packing and unpacking.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "proto/wire.h"

namespace lifeguard::proto {
namespace {

std::vector<std::uint8_t> frame(const Message& m) {
  return encode_datagram(m);
}

TEST(Compound, SingleFrameHasNoWrapper) {
  auto f = frame(Ack{1, "a"});
  auto packed = pack_compound({f});
  EXPECT_EQ(packed, f);

  std::vector<std::span<const std::uint8_t>> frames;
  ASSERT_TRUE(unpack_compound(packed, frames));
  ASSERT_EQ(frames.size(), 1u);
  BufReader r(frames[0]);
  auto msg = decode(r);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<Ack>(*msg).seq, 1u);
}

TEST(Compound, MultiFrameRoundTripPreservesOrder) {
  std::vector<std::vector<std::uint8_t>> in{
      frame(Suspect{"m1", 1, "a"}),
      frame(Alive{"m2", 2, Address{1, 1}}),
      frame(Ping{3, "m3", "me", Address{2, 2}}),
  };
  auto packed = pack_compound(in);

  std::vector<std::span<const std::uint8_t>> out;
  ASSERT_TRUE(unpack_compound(packed, out));
  ASSERT_EQ(out.size(), 3u);
  // Order must be preserved: buddy relies on the suspect preceding the ping.
  BufReader r0(out[0]);
  EXPECT_EQ(decode(r0), (Message{Suspect{"m1", 1, "a"}}));
  BufReader r1(out[1]);
  EXPECT_EQ(decode(r1), (Message{Alive{"m2", 2, Address{1, 1}}}));
  BufReader r2(out[2]);
  EXPECT_EQ(decode(r2), (Message{Ping{3, "m3", "me", Address{2, 2}}}));
}

TEST(Compound, ManySmallFrames) {
  std::vector<std::vector<std::uint8_t>> in;
  for (int i = 0; i < 200; ++i) {
    in.push_back(frame(Suspect{"m" + std::to_string(i),
                               static_cast<std::uint64_t>(i), "x"}));
  }
  auto packed = pack_compound(in);
  std::vector<std::span<const std::uint8_t>> out;
  ASSERT_TRUE(unpack_compound(packed, out));
  ASSERT_EQ(out.size(), 200u);
  BufReader r(out[137]);
  EXPECT_EQ(std::get<Suspect>(*decode(r)).incarnation, 137u);
}

TEST(Compound, UnpackRejectsEmpty) {
  std::vector<std::span<const std::uint8_t>> out;
  EXPECT_FALSE(unpack_compound({}, out));
}

TEST(Compound, UnpackRejectsTruncatedContainer) {
  auto packed = pack_compound({frame(Ack{1, "a"}), frame(Ack{2, "b"})});
  std::vector<std::span<const std::uint8_t>> out;
  for (std::size_t len = 1; len < packed.size(); ++len) {
    // Any truncation of the container must be rejected (or, if it cuts at a
    // frame boundary... it can't: the count header says two frames).
    EXPECT_FALSE(unpack_compound(
        std::span<const std::uint8_t>(packed.data(), len), out))
        << "length " << len;
  }
}

/// The list packer the assembler replaced, kept as the byte reference.
std::vector<std::uint8_t> reference_pack(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  if (frames.size() == 1) return frames.front();
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kCompound));
  w.u16(static_cast<std::uint16_t>(frames.size()));
  for (const auto& f : frames) {
    w.varint(f.size());
    w.raw(f);
  }
  return std::move(w).take();
}

std::vector<std::uint8_t> assemble(
    const std::vector<std::vector<std::uint8_t>>& frames,
    std::vector<std::uint8_t> reuse = {}) {
  CompoundWriter w(std::move(reuse));
  for (const auto& f : frames) w.add(f);
  EXPECT_EQ(w.count(), frames.size());
  return std::move(w).take();
}

std::vector<std::vector<std::vector<std::uint8_t>>> parity_cases() {
  // 150 bytes of name: a frame past 127 bytes takes a two-byte prefix.
  const auto big = frame(Suspect{std::string(150, 'x'), 7, "y"});
  EXPECT_GE(big.size(), 128u);
  std::vector<std::vector<std::uint8_t>> many;
  for (int i = 0; i < 40; ++i) {
    many.push_back(i % 7 == 3 ? big : frame(Ack{static_cast<std::uint32_t>(i),
                                                "n" + std::to_string(i)}));
  }
  return {{},
          {frame(Ack{1, "a"})},
          {big},
          {frame(Ack{1, "a"}), big},
          many};
}

TEST(CompoundWriter, MatchesTheListPackerByteForByte) {
  for (const auto& frames : parity_cases()) {
    SCOPED_TRACE(std::to_string(frames.size()) + " frames");
    EXPECT_EQ(assemble(frames), reference_pack(frames));
    EXPECT_EQ(pack_compound(frames), reference_pack(frames));
  }
}

TEST(CompoundWriter, ReusedBufferStartsEmpty) {
  for (const auto& frames : parity_cases()) {
    SCOPED_TRACE(std::to_string(frames.size()) + " frames");
    std::vector<std::uint8_t> reuse(600, 0xee);  // stale bytes and capacity
    EXPECT_EQ(assemble(frames, std::move(reuse)), reference_pack(frames));
  }
}

TEST(CompoundWriter, WrappedViewSplitsBackIntoTheFrames) {
  for (const auto& frames : parity_cases()) {
    SCOPED_TRACE(std::to_string(frames.size()) + " frames");
    CompoundWriter w;
    for (const auto& f : frames) w.add(f);
    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(unpack_compound(w.wrapped(), out));
    ASSERT_EQ(out.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(out[i], frames[i])) << "frame " << i;
    }
  }
}

TEST(Compound, FrameOverheadMatchesVarintWidth) {
  EXPECT_EQ(compound_frame_overhead(0), 1u);
  EXPECT_EQ(compound_frame_overhead(127), 1u);
  EXPECT_EQ(compound_frame_overhead(128), 2u);
  EXPECT_EQ(compound_frame_overhead(20000), 3u);
}

}  // namespace
}  // namespace lifeguard::proto
