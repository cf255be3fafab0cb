// NameIndex: dense, stable ids; only intern() grows the index.
#include "common/names.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lifeguard {
namespace {

std::string member(int i) { return "node-" + std::to_string(i); }

TEST(NameIndex, InternIsIdempotentAndDense) {
  NameIndex names;
  EXPECT_EQ(names.size(), 0u);
  EXPECT_EQ(names.intern("b"), 0u);
  EXPECT_EQ(names.intern("a"), 1u);
  EXPECT_EQ(names.intern("b"), 0u);
  EXPECT_EQ(names.intern(std::string("a")), 1u);
  EXPECT_EQ(names.intern(""), 2u);
  EXPECT_EQ(names.intern(""), 2u);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(names.name(0), "b");
  EXPECT_EQ(names.name(1), "a");
  EXPECT_EQ(names.name(2), "");
}

TEST(NameIndex, IdsAreStableAcrossGrowth) {
  // Thousands of names force many rehashes; every earlier id must keep
  // naming its member, in interning order.
  NameIndex names;
  constexpr int kNames = 5000;
  for (int i = 0; i < kNames; ++i) {
    ASSERT_EQ(names.intern(member(i)), static_cast<NameIndex::Id>(i));
    if (i % 997 == 0) {
      for (int j = 0; j <= i; ++j) {
        ASSERT_EQ(names.find(member(j)), static_cast<NameIndex::Id>(j));
      }
    }
  }
  ASSERT_EQ(names.size(), static_cast<std::size_t>(kNames));
  for (int i = kNames - 1; i >= 0; --i) {
    const auto id = static_cast<NameIndex::Id>(i);
    EXPECT_EQ(names.intern(member(i)), id);
    EXPECT_EQ(names.find(member(i)), id);
    EXPECT_EQ(names.name(id), member(i));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNames));
}

TEST(NameIndex, FindOfAnUnknownNameLeavesTheIndexUnchanged) {
  NameIndex names;
  EXPECT_EQ(names.find("ghost"), NameIndex::kNone);  // empty index
  EXPECT_EQ(names.size(), 0u);
  for (int i = 0; i < 40; ++i) names.intern(member(i));
  for (int i = 40; i < 400; ++i) {
    EXPECT_EQ(names.find(member(i)), NameIndex::kNone);
  }
  EXPECT_EQ(names.find(""), NameIndex::kNone);
  EXPECT_EQ(names.size(), 40u);
  EXPECT_EQ(names.intern(member(40)), 40u);
}

TEST(NameIndex, NamesThatDifferOnlyAfterAnEmbeddedNulAreDistinct) {
  NameIndex names;
  const std::string a("node\0a", 6);
  const std::string b("node\0b", 6);
  const std::string prefix("node", 4);
  const NameIndex::Id ia = names.intern(a);
  const NameIndex::Id ib = names.intern(b);
  const NameIndex::Id ip = names.intern(prefix);
  EXPECT_NE(ia, ib);
  EXPECT_NE(ia, ip);
  EXPECT_NE(ib, ip);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(names.find(a), ia);
  EXPECT_EQ(names.find(b), ib);
  EXPECT_EQ(names.find(std::string("node\0c", 6)), NameIndex::kNone);
  EXPECT_EQ(names.name(ia), a);
  EXPECT_EQ(names.name(ib), b);
}

TEST(IdMap, HoldsItsFirstValueAloneThenSpansTheIndex) {
  NameIndex names;
  for (int i = 0; i < 10; ++i) names.intern(member(i));
  IdMap map;
  EXPECT_EQ(map.get(3), IdMap::kNone);
  EXPECT_EQ(map.get(NameIndex::kNone), IdMap::kNone);
  map.at(7, names) = 70;  // alone: ids on both sides stay unset
  EXPECT_EQ(map.get(7), 70u);
  EXPECT_EQ(map.get(6), IdMap::kNone);
  EXPECT_EQ(map.get(8), IdMap::kNone);
  EXPECT_EQ(map.get(NameIndex::kNone), IdMap::kNone);
  map.at(2, names) = 20;  // below the first: the map now spans the index
  map.at(9, names) = 90;
  EXPECT_EQ(map.get(7), 70u);
  EXPECT_EQ(map.get(2), 20u);
  EXPECT_EQ(map.get(9), 90u);
  EXPECT_EQ(map.get(0), IdMap::kNone);
  map.at(7, names) = IdMap::kNone;
  EXPECT_EQ(map.get(7), IdMap::kNone);
  // Ids interned later widen it again.
  const NameIndex::Id late = names.intern("late");
  EXPECT_EQ(map.get(late), IdMap::kNone);
  map.at(late, names) = 5;
  EXPECT_EQ(map.get(late), 5u);
  EXPECT_EQ(map.get(2), 20u);
  EXPECT_EQ(map.get(NameIndex::kNone), IdMap::kNone);
}

}  // namespace
}  // namespace lifeguard
