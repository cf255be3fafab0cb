// Scenario API: validation messages, the built-in registry and the run()
// engine.
#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "fault/injector.h"
#include "membership/backend.h"

namespace lifeguard::harness {
namespace {

/// True when some validation error mentions `needle`.
bool mentions(const std::vector<std::string>& errors,
              const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

Scenario tiny_valid() {
  Scenario s;
  s.name = "tiny";
  s.cluster_size = 8;
  s.quiesce = sec(10);
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(16), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.run_length = sec(30);
  return s;
}

/// `s` with its one timeline entry replaced by `fault` over `span`.
Scenario with_entry(Scenario s, fault::Fault fault, Duration span,
                    int victims) {
  s.timeline = fault::Timeline{};
  s.timeline.add(sec(0), span, fault, fault::VictimSelector::uniform(victims));
  return s;
}

// effective_timeline() must hand out the field itself: a returned copy
// would leave range-for loops over effective_timeline().entries() reading
// a destroyed temporary.
static_assert(std::is_same_v<decltype(std::declval<const Scenario&>()
                                          .effective_timeline()),
                             const fault::Timeline&>);

// ---------------------------------------------------------------------------
// Validation

TEST(ScenarioValidation, ValidDescriptorHasNoErrors) {
  EXPECT_TRUE(tiny_valid().validate().empty());
}

TEST(ScenarioValidation, MissingNameAndBadSizeAreBothReported) {
  Scenario s = tiny_valid();
  s.name.clear();
  s.cluster_size = 1;
  const auto errors = s.validate();
  EXPECT_GE(errors.size(), 2u);  // plus victims no longer fitting the cluster
  EXPECT_TRUE(mentions(errors, "name must be non-empty"));
  EXPECT_TRUE(mentions(errors, "cluster_size (1) must be >= 2"));
}

TEST(ScenarioValidation, VictimCountMustFitCluster) {
  Scenario s = tiny_valid();
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(12);
  EXPECT_TRUE(mentions(s.validate(), "more than cluster_size (8)"));
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(0);
  EXPECT_TRUE(mentions(s.validate(), "victims count must be >= 1"));
}

TEST(ScenarioValidation, CyclingKindsNeedPositiveSpans) {
  for (const fault::Fault& f :
       {fault::Fault::interval_block(Duration{0}, Duration{0}),
        fault::Fault::flapping(sec(1), Duration{0})}) {
    const Scenario s = with_entry(tiny_valid(), f, sec(30), 2);
    EXPECT_TRUE(mentions(s.validate(), "period D > 0 and gap I > 0"))
        << fault::fault_kind_name(f.kind);
  }
}

TEST(ScenarioValidation, PartitionNeedsBothSidesAndInWindowHeal) {
  Scenario s = with_entry(tiny_valid(), fault::Fault::partition(), sec(10), 8);
  EXPECT_TRUE(mentions(s.validate(), "members on both sides"));
  // A split that outlasts the observation window is valid: the engine runs
  // on until the heal, so the re-merge is always observed.
  s = with_entry(tiny_valid(), fault::Fault::partition(), sec(60), 4);
  EXPECT_TRUE(s.validate().empty());
  EXPECT_GT(fault::FaultInjector::plan_total_run(s.timeline, s.run_length),
            sec(60));
}

TEST(ScenarioValidation, ChurnReservesTheSeedNode) {
  const Scenario s = with_entry(
      tiny_valid(), fault::Fault::churn(sec(10), sec(10)), sec(30), 8);
  EXPECT_TRUE(mentions(s.validate(), "rejoin seed"));
}

TEST(ScenarioValidation, StressRangesMustBeOrdered) {
  fault::StressParams sp;
  sp.block_min = sec(10);
  sp.block_max = sec(2);
  const Scenario s =
      with_entry(tiny_valid(), fault::Fault::stressed(sp), sec(30), 2);
  EXPECT_TRUE(mentions(s.validate(), "block_min <= block_max"));
}

TEST(ScenarioValidation, TimelineDefectsAreSurfaced) {
  const Scenario s =
      with_entry(tiny_valid(), fault::Fault::partition(), sec(5), 8);
  EXPECT_TRUE(mentions(s.validate(), "timeline[0]"));
  EXPECT_TRUE(mentions(s.validate(), "both sides"));
}

TEST(ScenarioValidation, NetworkLossMustBeProbability) {
  Scenario s = tiny_valid();
  s.network.udp_loss = 1.5;
  EXPECT_TRUE(mentions(s.validate(), "udp_loss"));
}

TEST(ScenarioValidation, RunRefusesInvalidDescriptorWithAllErrors) {
  Scenario s = tiny_valid();
  s.name.clear();
  s.run_length = Duration{0};
  try {
    run(s);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.errors().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid scenario"), std::string::npos);
    EXPECT_NE(what.find("run_length"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(ScenarioRegistry, BuiltinCatalogCoversPaperAndNewKinds) {
  const auto& reg = ScenarioRegistry::builtin();
  EXPECT_GE(reg.all().size(), 10u);
  for (const char* name :
       {"fig1-cpu-exhaustion", "fig2-total-false-positives",
        "fig3-fp-at-healthy", "table4-false-positives", "table5-latency",
        "table6-message-load", "table7-alpha-beta", "partition-split-heal",
        "flapping-overload", "churn-rolling-restarts",
        "partition-under-stress", "lossy-flapping", "churn-after-heal",
        "packet-chaos"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // The composed catalog entries carry multi-entry fault timelines.
  EXPECT_GE(reg.find("partition-under-stress")->timeline.size(), 2u);
  EXPECT_GE(reg.find("churn-after-heal")->timeline.size(), 2u);
  EXPECT_GE(reg.find("packet-chaos")->timeline.size(), 3u);
  std::set<fault::FaultKind> kinds;
  for (const auto& s : reg.all()) {
    EXPECT_TRUE(s.validate().empty()) << s.name;
    for (const auto& e : s.timeline.entries()) kinds.insert(e.fault.kind);
  }
  // The paper's block / interval / stress kinds, the post-paper process
  // kinds and every network kind.
  EXPECT_EQ(kinds.size(), fault::all_fault_kinds().size());
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalidEntries) {
  ScenarioRegistry reg;
  reg.add(tiny_valid());
  EXPECT_THROW(reg.add(tiny_valid()), ScenarioError);
  Scenario bad = tiny_valid();
  bad.name = "bad";
  bad.cluster_size = 0;
  EXPECT_THROW(reg.add(bad), ScenarioError);
  EXPECT_EQ(reg.all().size(), 1u);
}

TEST(ScenarioRegistry, FindAndNamesAgree) {
  const auto& reg = ScenarioRegistry::builtin();
  for (const auto& name : reg.names()) {
    const Scenario* s = reg.find(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name, name);
  }
  EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
}

// ---------------------------------------------------------------------------
// Engine: every cataloged scenario runs end-to-end at a tiny scale

TEST(ScenarioEngine, EveryBuiltinScenarioRunsAtTinyScale) {
  for (const Scenario& original : ScenarioRegistry::builtin().all()) {
    Scenario s = original;
    // Shrink to seconds of virtual time while keeping the fault shapes:
    // every span fits a 40 s window and uniform draws take at most 2 of
    // the 12 members (4 for a partition island).
    s.cluster_size = std::min(s.cluster_size, 12);
    s.quiesce = sec(10);
    s.run_length = std::min(s.run_length, sec(40));
    for (std::size_t i = 0; i < s.timeline.size(); ++i) {
      fault::TimelineEntry& e = s.timeline.entry(i);
      e.duration = std::min(e.duration, s.run_length);
      if (e.victims.mode == fault::VictimSelector::Mode::kUniform) {
        e.victims.count = e.fault.kind == fault::FaultKind::kPartition
                              ? 4
                              : std::min(e.victims.count, 2);
      }
    }
    ASSERT_TRUE(s.validate().empty()) << s.name;

    const RunResult r = run(s);
    EXPECT_EQ(r.scenario_name, s.name);
    EXPECT_EQ(r.cluster_size, s.cluster_size) << s.name;
    // Victims are the union across timeline entries.
    EXPECT_EQ(r.victims.empty(), s.timeline.empty()) << s.name;
    EXPECT_LE(r.victims.size(), static_cast<std::size_t>(s.cluster_size))
        << s.name;
    // The static control backend is a deliberate zero-message floor; every
    // real protocol must put datagrams on the wire.
    if (membership::base_name(s.membership) == "static") {
      EXPECT_EQ(r.msgs_sent, 0) << s.name;
      EXPECT_EQ(r.bytes_sent, 0) << s.name;
    } else {
      EXPECT_GT(r.msgs_sent, 0) << s.name;
      EXPECT_GT(r.bytes_sent, 0) << s.name;
    }
  }
}

TEST(ScenarioEngine, ReproducibleForSameSeedDistinctAcrossSeeds) {
  Scenario s = tiny_valid();
  const RunResult a = run(s);
  const RunResult b = run(s);
  EXPECT_EQ(a.victims, b.victims);
  EXPECT_EQ(a.fp_events, b.fp_events);
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  s.seed = 999;
  const RunResult c = run(s);
  EXPECT_NE(a.msgs_sent, c.msgs_sent);
}

TEST(ScenarioEngine, ChurnVictimsRejoinByTheEnd) {
  Scenario s;
  s.name = "churn-tiny";
  s.cluster_size = 10;
  s.quiesce = sec(10);
  s.config = swim::Config::lifeguard();
  s.timeline.add(sec(0), sec(80), fault::Fault::churn(sec(15), sec(25)),
                 fault::VictimSelector::uniform(2));
  s.run_length = sec(80);
  s.seed = 51;
  const RunResult r = run(s);
  ASSERT_EQ(r.victims.size(), 2u);
  // Node 0 is the rejoin seed and must never be churned.
  EXPECT_FALSE(std::count(r.victims.begin(), r.victims.end(), 0));
  // Crashes were real: survivors declared the churned members dead.
  EXPECT_FALSE(r.first_detect.empty());
}

}  // namespace
}  // namespace lifeguard::harness
