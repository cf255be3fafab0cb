// Membership table: round-robin probe order, random insertion, selection.
#include "swim/membership.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lifeguard::swim {
namespace {

Member mk(const std::string& name, MemberState s = MemberState::kAlive) {
  Member m;
  m.name = name;
  m.addr = Address{1, 1};
  m.state = s;
  return m;
}

TEST(Membership, AddFindContains) {
  Rng rng(1);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  EXPECT_TRUE(t.contains("a"));
  EXPECT_FALSE(t.contains("b"));
  ASSERT_NE(t.find("a"), nullptr);
  EXPECT_EQ(t.find("a")->name, "a");
  EXPECT_EQ(t.find("nope"), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Membership, NumActiveCountsAliveAndSuspect) {
  Rng rng(2);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  t.add(mk("b", MemberState::kSuspect), rng);
  t.add(mk("c", MemberState::kDead), rng);
  t.add(mk("d", MemberState::kLeft), rng);
  EXPECT_EQ(t.num_active(), 3);  // self + a + b
}

TEST(Membership, ProbeOrderVisitsEveryActiveMemberPerPass) {
  Rng rng(3);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 10; ++i) t.add(mk("m" + std::to_string(i)), rng);

  // Two full passes: every member probed exactly twice; self never.
  std::map<std::string, int> counts;
  for (int i = 0; i < 20; ++i) {
    Member* m = t.next_probe_target(rng);
    ASSERT_NE(m, nullptr);
    ++counts[m->name];
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [name, c] : counts) {
    EXPECT_EQ(c, 2) << name;
    EXPECT_NE(name, "self");
  }
}

TEST(Membership, ProbeOrderSkipsInactive) {
  Rng rng(4);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("alive"), rng);
  Member& dead = t.add(mk("dead"), rng);
  t.set_state(dead, MemberState::kDead, TimePoint{});
  Member& left = t.add(mk("left"), rng);
  t.set_state(left, MemberState::kLeft, TimePoint{});

  for (int i = 0; i < 6; ++i) {
    Member* m = t.next_probe_target(rng);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->name, "alive");
  }
}

TEST(Membership, ProbeTargetNullWhenAlone) {
  Rng rng(5);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  EXPECT_EQ(t.next_probe_target(rng), nullptr);
  Member& only = t.add(mk("a"), rng);
  t.set_state(only, MemberState::kDead, TimePoint{});
  EXPECT_EQ(t.next_probe_target(rng), nullptr);
}

TEST(Membership, RandomInsertionPositionsVary) {
  // New members must land at random positions in the probe list (SWIM's
  // join rule): across many tables, the newcomer's first-probe rank varies.
  std::set<int> ranks;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 100);
    MembershipTable t("self");
    t.add(mk("self"), rng);
    for (int i = 0; i < 8; ++i) t.add(mk("m" + std::to_string(i)), rng);
    (void)t.next_probe_target(rng);  // force an initial shuffle+position
    t.add(mk("newcomer"), rng);
    for (int i = 0; i < 9; ++i) {
      if (t.next_probe_target(rng)->name == "newcomer") {
        ranks.insert(i);
        break;
      }
    }
  }
  EXPECT_GT(ranks.size(), 3u);
}

TEST(Membership, RemoveDropsFromProbeOrder) {
  Rng rng(6);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  t.add(mk("b"), rng);
  t.remove("a");
  EXPECT_FALSE(t.contains("a"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.next_probe_target(rng)->name, "b");
  }
}

TEST(Membership, RemoveBeforeTheCursorSkipsNoTarget) {
  // Reclaiming a member already probed in this pass shifts the rest of the
  // probe list down by one. The members still due must all be probed before
  // the pass ends (paper §III-A: every member once per pass).
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    MembershipTable t("self");
    t.add(mk("self"), rng);
    for (int i = 0; i < 6; ++i) t.add(mk("m" + std::to_string(i)), rng);
    std::set<std::string> due;
    for (int i = 0; i < 6; ++i) due.insert("m" + std::to_string(i));
    std::string first;
    for (int i = 0; i < 3; ++i) {
      const std::string name = t.next_probe_target(rng)->name;
      if (i == 0) first = name;
      due.erase(name);
    }
    t.remove(first);
    std::set<std::string> rest;
    for (int i = 0; i < 3; ++i) rest.insert(t.next_probe_target(rng)->name);
    EXPECT_EQ(rest, due) << "seed " << seed;
  }
}

TEST(Membership, SlotsIndexAndSetsStayConsistentUnderChurn) {
  // Random adds, state changes and removes (which move the last slot into
  // the freed one) against a plain map model of the table, with a probe
  // after every step.
  Rng rng(11);
  MembershipTable t("self");
  std::map<std::string, MemberState> model;
  const MemberState kStates[] = {MemberState::kAlive, MemberState::kSuspect,
                                 MemberState::kDead, MemberState::kLeft};
  for (int step = 0; step < 4000; ++step) {
    const std::string name = "m" + std::to_string(rng.uniform(40));
    const std::string who = rng.chance(0.05) ? "self" : name;
    const auto op = rng.uniform(3);
    if (op == 0) {
      const MemberState s = kStates[rng.uniform(4)];
      if (!model.contains(who)) model[who] = s;
      t.add(mk(who, s), rng);
    } else if (op == 1 && model.contains(who)) {
      const MemberState s = kStates[rng.uniform(4)];
      model[who] = s;
      t.set_state(*t.find(who), s, TimePoint{});
    } else if (op == 2) {
      model.erase(who);
      t.remove(who);
    }

    ASSERT_EQ(t.size(), model.size()) << "step " << step;
    int active = 0;
    std::set<std::string> want_active, want_dead;
    for (const auto& [n, s] : model) {
      const Member* m = t.find(n);
      ASSERT_NE(m, nullptr) << n << " at step " << step;
      ASSERT_EQ(m->name, n);
      ASSERT_EQ(m->state, s) << n << " at step " << step;
      active += is_active(s) ? 1 : 0;
      if (n == "self") continue;
      if (is_active(s)) want_active.insert(n);
      if (s == MemberState::kDead) want_dead.insert(n);
    }
    ASSERT_EQ(t.num_active(), active) << "step " << step;
    std::set<std::string> got_active, got_dead;
    for (const Member& m : t.active()) got_active.insert(m.name);
    for (const Member& m : t.dead()) got_dead.insert(m.name);
    ASSERT_EQ(got_active, want_active) << "step " << step;
    ASSERT_EQ(got_dead, want_dead) << "step " << step;
    // The probe order follows the moved ids too.
    const Member* target = t.next_probe_target(rng);
    if (want_active.empty()) {
      ASSERT_EQ(target, nullptr) << "step " << step;
    } else {
      ASSERT_NE(target, nullptr) << "step " << step;
      ASSERT_TRUE(want_active.contains(target->name)) << "step " << step;
    }
  }
}

TEST(Membership, RandomMembersExcludesAndDeduplicates) {
  Rng rng(7);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 10; ++i) t.add(mk("m" + std::to_string(i)), rng);

  for (int round = 0; round < 50; ++round) {
    auto picks = t.random_active(3, rng, {"m0", "m1"});
    EXPECT_EQ(picks.size(), 3u);
    std::set<std::string> names;
    for (Member* m : picks) {
      names.insert(m->name);
      EXPECT_NE(m->name, "self");
      EXPECT_NE(m->name, "m0");
      EXPECT_NE(m->name, "m1");
    }
    EXPECT_EQ(names.size(), 3u);  // distinct
  }
}

TEST(Membership, RandomActiveIgnoresRepeatedExcludes) {
  Rng rng(14);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (const char* name : {"a", "b", "c"}) t.add(mk(name), rng);
  for (int round = 0; round < 50; ++round) {
    std::set<std::string> names;
    for (Member* m : t.random_active(5, rng, {"a", "self", "a"})) {
      names.insert(m->name);
    }
    EXPECT_EQ(names, (std::set<std::string>{"b", "c"}));
  }
}

TEST(Membership, RandomMembersReturnsFewerWhenShort) {
  Rng rng(8);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  auto picks = t.random_active(5, rng, {});
  EXPECT_EQ(picks.size(), 1u);
  picks = t.random_active(0, rng, {});
  EXPECT_TRUE(picks.empty());
}

TEST(Membership, RandomMembersIsRoughlyUniform) {
  Rng rng(9);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 8; ++i) t.add(mk("m" + std::to_string(i)), rng);
  std::map<std::string, int> counts;
  constexpr int kRounds = 8000;
  for (int i = 0; i < kRounds; ++i) {
    for (Member* m : t.random_active(1, rng, {})) ++counts[m->name];
  }
  for (const auto& [name, c] : counts) {
    EXPECT_NEAR(c, kRounds / 8, kRounds / 8 / 4) << name;
  }
}

TEST(Membership, PredicateFiltering) {
  Rng rng(10);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("alive1"), rng);
  t.add(mk("dead1", MemberState::kDead), rng);
  auto picks = t.random_dead(5, rng);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0]->name, "dead1");
}

TEST(Membership, GossipTargetsAddRecentlyDeadOnly) {
  Rng rng(12);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("alive"), rng);
  t.add(mk("suspect", MemberState::kSuspect), rng);
  t.add(mk("left", MemberState::kLeft), rng);
  Member& old_dead = t.add(mk("old-dead"), rng);
  t.set_state(old_dead, MemberState::kDead, TimePoint{} + sec(10));
  Member& new_dead = t.add(mk("new-dead"), rng);
  t.set_state(new_dead, MemberState::kDead, TimePoint{} + sec(80));

  const TimePoint now = TimePoint{} + sec(100);
  for (int round = 0; round < 20; ++round) {
    std::set<std::string> names;
    for (Member* m : t.random_active_or_recently_dead(10, rng, now, sec(30))) {
      names.insert(m->name);
    }
    EXPECT_EQ(names,
              (std::set<std::string>{"alive", "suspect", "new-dead"}));
  }
}

TEST(Membership, GossipTargetsAreDistinctAndRoughlyUniform) {
  // The sample spans the active set and the recently dead: picking all of
  // them returns each exactly once, and single picks are uniform across the
  // two groups.
  Rng rng(13);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 4; ++i) t.add(mk("a" + std::to_string(i)), rng);
  for (int i = 0; i < 4; ++i) {
    Member& d = t.add(mk("d" + std::to_string(i)), rng);
    t.set_state(d, MemberState::kDead, TimePoint{});
  }
  for (int round = 0; round < 50; ++round) {
    std::multiset<std::string> names;
    for (Member* m : t.random_active_or_recently_dead(8, rng, TimePoint{},
                                                      sec(1))) {
      names.insert(m->name);
    }
    EXPECT_EQ(names.size(), 8u);
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), 8u);
  }
  std::map<std::string, int> counts;
  constexpr int kRounds = 8000;
  for (int i = 0; i < kRounds; ++i) {
    for (Member* m : t.random_active_or_recently_dead(1, rng, TimePoint{},
                                                      sec(1))) {
      ++counts[m->name];
    }
  }
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [name, c] : counts) {
    EXPECT_NEAR(c, kRounds / 8, kRounds / 8 / 4) << name;
  }
}

// ---- tables on a shared name index ----

/// Each member's name and state, in slot order.
std::vector<std::pair<std::string, MemberState>> slots_of(
    const MembershipTable& t) {
  std::vector<std::pair<std::string, MemberState>> out;
  for (const Member& m : t.all()) out.emplace_back(m.name, m.state);
  return out;
}

std::vector<std::string> names_of(const std::vector<Member*>& picked) {
  std::vector<std::string> out;
  for (const Member* m : picked) out.push_back(m->name);
  return out;
}

TEST(MembershipSharedNames, BehavesExactlyLikeAPrivateIndex) {
  // One scripted sequence drives a table with a private index and a table
  // whose index it shares with another node's table. The shared index
  // holds the names in another order, and foreign ones, so every name has
  // a different id in each index. Slots, probe order and every random pick
  // must still agree, draw for draw.
  NameIndex shared;
  shared.intern("elsewhere");
  for (int i = 11; i >= 0; --i) shared.intern("m" + std::to_string(i));
  MembershipTable own("self");
  MembershipTable mine("self", shared);
  MembershipTable other("other", shared);
  Rng own_rng(5);
  Rng mine_rng(5);
  Rng other_rng(99);
  const auto both = [&](const auto& op) {
    op(own, own_rng);
    op(mine, mine_rng);
    ASSERT_EQ(slots_of(own), slots_of(mine));
  };
  const auto add = [&](const std::string& name,
                       MemberState s = MemberState::kAlive) {
    both([&](MembershipTable& t, Rng& rng) { t.add(mk(name, s), rng); });
  };
  const auto remove = [&](const std::string& name) {
    both([&](MembershipTable& t, Rng&) { t.remove(name); });
  };
  const auto set_state = [&](const std::string& name, MemberState s) {
    both([&](MembershipTable& t, Rng&) {
      t.set_state(*t.find(name), s, TimePoint{} + sec(1));
    });
  };
  const auto probe = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const Member* a = own.next_probe_target(own_rng);
      const Member* b = mine.next_probe_target(mine_rng);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_EQ(a->name, b->name) << "probe " << i;
    }
  };

  add("self");
  for (int i = 0; i < 12; ++i) {
    add("m" + std::to_string(i));
    // The other node grows the shared index in between.
    other.add(mk(i % 3 == 0 ? "x" + std::to_string(i) : "m" + std::to_string(i)),
              other_rng);
  }
  set_state("m3", MemberState::kSuspect);
  set_state("m6", MemberState::kDead);
  set_state("m8", MemberState::kLeft);
  probe(5);

  // A middle slot: the last member moves into it; re-adding appends.
  remove("m5");
  probe(3);
  add("m5");
  // The last slot: nothing moves.
  const std::string last = own.all().back().name;
  ASSERT_EQ(last, "m5");
  remove(last);
  add(last, MemberState::kSuspect);
  set_state("m6", MemberState::kAlive);
  probe(40);

  for (int round = 0; round < 20; ++round) {
    ASSERT_EQ(names_of(own.random_active(4, own_rng, {"m1", "m2"})),
              names_of(mine.random_active(4, mine_rng, {"m1", "m2"})));
    ASSERT_EQ(names_of(own.random_dead(2, own_rng)),
              names_of(mine.random_dead(2, mine_rng)));
    ASSERT_EQ(
        names_of(own.random_active_or_recently_dead(5, own_rng,
                                                    TimePoint{} + sec(2), sec(5))),
        names_of(mine.random_active_or_recently_dead(
            5, mine_rng, TimePoint{} + sec(2), sec(5))));
  }
  EXPECT_EQ(own.num_active(), mine.num_active());

  // The other node's table kept its own members.
  EXPECT_EQ(other.size(), 12u);
  EXPECT_NE(other.find("x9"), nullptr);
  EXPECT_EQ(other.find("m9"), nullptr);
  EXPECT_EQ(mine.find("x9"), nullptr);

  // Only add() interns: lookups and removals of unknown names, and
  // removals of known ones, leave the index as it is.
  const std::size_t interned = shared.size();
  EXPECT_EQ(interned, 1u + 12u + 1u + 4u);  // elsewhere, m*, self, x*
  EXPECT_EQ(mine.find("nobody"), nullptr);
  EXPECT_FALSE(mine.contains("nobody-else"));
  mine.remove("nobody-at-all");
  mine.remove("m4");
  EXPECT_EQ(shared.size(), interned);
}

TEST(MemberState, NamesAndActivity) {
  EXPECT_STREQ(member_state_name(MemberState::kAlive), "alive");
  EXPECT_STREQ(member_state_name(MemberState::kSuspect), "suspect");
  EXPECT_STREQ(member_state_name(MemberState::kDead), "dead");
  EXPECT_STREQ(member_state_name(MemberState::kLeft), "left");
  EXPECT_TRUE(is_active(MemberState::kAlive));
  EXPECT_TRUE(is_active(MemberState::kSuspect));
  EXPECT_FALSE(is_active(MemberState::kDead));
  EXPECT_FALSE(is_active(MemberState::kLeft));
}

}  // namespace
}  // namespace lifeguard::swim
