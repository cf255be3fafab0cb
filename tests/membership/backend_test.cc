// The membership seam itself: spec parsing, the backend registry, the static
// control backend's floor guarantees, per-backend invariant applicability,
// and the trace-header round trip for the `membership` field.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "check/invariant.h"
#include "check/replay.h"
#include "check/spec.h"
#include "check/trace.h"
#include "harness/scenario.h"
#include "membership/backend.h"

namespace lifeguard::membership {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing

TEST(BackendSpecParse, AcceptsTheThreeBackendsAndCentralParameters) {
  std::string error;
  auto swim = parse_spec("swim", &error);
  ASSERT_TRUE(swim.has_value()) << error;
  EXPECT_EQ(swim->base, "swim");
  EXPECT_EQ(swim->spec, "swim");

  auto central = parse_spec("central", &error);
  ASSERT_TRUE(central.has_value()) << error;
  EXPECT_EQ(central->base, "central");
  EXPECT_EQ(central->miss_threshold, 3);  // documented default

  auto tuned = parse_spec("central:miss=5", &error);
  ASSERT_TRUE(tuned.has_value()) << error;
  EXPECT_EQ(tuned->base, "central");
  EXPECT_EQ(tuned->miss_threshold, 5);
  EXPECT_EQ(tuned->spec, "central:miss=5");  // verbatim, for trace headers

  auto fixed = parse_spec("static", &error);
  ASSERT_TRUE(fixed.has_value()) << error;
  EXPECT_EQ(fixed->base, "static");
}

TEST(BackendSpecParse, RejectsMalformedSpecsWithActionableMessages) {
  const auto fails = [](std::string_view spec) {
    std::string error;
    const auto parsed = parse_spec(spec, &error);
    EXPECT_FALSE(parsed.has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    return error;
  };
  fails("bogus");
  fails("");
  fails("swim:miss=2");     // only central takes parameters
  fails("static:miss=2");
  fails("central:miss=0");  // documented range [1, 100]
  fails("central:miss=101");
  fails("central:miss=abc");
  fails("central:miss=");
  fails("central:woof=3");  // unknown key
  fails("central:");
}

TEST(BackendSpecParse, BaseNameStripsParametersWithoutValidating) {
  EXPECT_EQ(base_name("swim"), "swim");
  EXPECT_EQ(base_name("central:miss=5"), "central");
  EXPECT_EQ(base_name("anything:with=params"), "anything");
}

// ---------------------------------------------------------------------------
// Registry

TEST(BackendRegistry, HoldsTheThreeBuiltinsInCatalogOrder) {
  const auto names = BackendRegistry::builtin().names();
  const std::vector<std::string> expected = {"swim", "central", "static"};
  EXPECT_EQ(names, expected);
  for (const Backend* b : BackendRegistry::builtin().all()) {
    EXPECT_FALSE(b->summary().empty()) << b->name();
  }
}

TEST(BackendRegistry, FindAcceptsBareNamesAndFullSpecs) {
  const BackendRegistry& reg = BackendRegistry::builtin();
  ASSERT_NE(reg.find("swim"), nullptr);
  ASSERT_NE(reg.find("central"), nullptr);
  ASSERT_NE(reg.find("central:miss=5"), nullptr);
  EXPECT_EQ(reg.find("central:miss=5"), reg.find("central"));
  EXPECT_EQ(reg.find("bogus"), nullptr);
  EXPECT_EQ(reg.find(""), nullptr);
  EXPECT_TRUE(reg.find("swim")->detects_failures());
  EXPECT_TRUE(reg.find("central")->detects_failures());
  EXPECT_FALSE(reg.find("static")->detects_failures());
}

// ---------------------------------------------------------------------------
// Scenario validation

TEST(ScenarioMembership, ValidateRejectsUnknownBackends) {
  harness::Scenario s;
  s.name = "bad-membership";
  s.summary = "x";
  s.cluster_size = 8;
  s.run_length = sec(10);
  s.membership = "raft";
  const auto errors = s.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("membership"), std::string::npos);
  EXPECT_NE(errors.front().find("raft"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The static control backend

TEST(StaticBackend, IsAZeroMessageZeroDetectionFloor) {
  const harness::Scenario* s =
      harness::ScenarioRegistry::builtin().find("static-floor");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->membership, "static");
  const harness::RunResult r = harness::run(*s);
  EXPECT_EQ(r.msgs_sent, 0);
  EXPECT_EQ(r.bytes_sent, 0);
  EXPECT_EQ(r.fp_events, 0);
  EXPECT_EQ(r.fp_healthy_events, 0);
  // No detector: the blocked members are never declared failed.
  EXPECT_TRUE(r.first_detect.empty());
  EXPECT_TRUE(r.full_dissem.empty());
  // The generic invariant suite still runs — and holds — over the
  // fixed-roster event stream.
  EXPECT_TRUE(r.checks.checked);
  EXPECT_TRUE(r.checks.passed());
}

// ---------------------------------------------------------------------------
// Invariant applicability

TEST(InvariantApplicability, SwimOnlyInvariantsAutoDisableOffSwim) {
  const check::Spec all = check::Spec::all();
  const swim::Config cfg = swim::Config::lifeguard();

  const check::Checker swim_checker(all, cfg, 8, "swim");
  const auto swim_names = swim_checker.report().invariants;
  EXPECT_EQ(swim_names.size(), 8u);

  const std::vector<std::string> generic = {
      "legal-transitions", "convergence", "no-send-from-crashed",
      "partition-containment"};
  for (const char* backend : {"central", "central:miss=5", "static"}) {
    const check::Checker c(all, cfg, 8, backend);
    EXPECT_EQ(c.report().invariants, generic) << backend;
  }

  // Auto-disable is silent even when the Spec requests a swim-only invariant
  // by name — the same Spec must be runnable against every backend.
  check::Spec named = check::Spec::all();
  named.invariants = {"suspicion-bounds", "convergence"};
  const check::Checker named_central(named, cfg, 8, "central");
  const std::vector<std::string> only_convergence = {"convergence"};
  EXPECT_EQ(named_central.report().invariants, only_convergence);

  // ...but a misspelled name is still an error on any backend.
  check::Spec typo = check::Spec::all();
  typo.invariants = {"suspicion-bonds"};
  EXPECT_THROW(check::Checker(typo, cfg, 8, "central"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trace-header round trip

TEST(TraceHeader, MembershipFieldRoundTripsThroughSaveAndLoad) {
  const harness::Scenario* central =
      harness::ScenarioRegistry::builtin().find("central-coordinator-crash");
  ASSERT_NE(central, nullptr);
  ASSERT_EQ(central->membership, "central:miss=4");

  check::TraceRecorder rec(*central, false, false);
  harness::run(*central, {&rec});
  std::ostringstream os;
  check::save_trace(rec.trace(), os);

  std::istringstream is(os.str());
  std::string error;
  const auto loaded = check::load_trace(is, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // The loaded scenario runs on the same backend; replaying it reproduces
  // the recorded stream bit for bit.
  EXPECT_EQ(loaded->scenario.membership, "central:miss=4");
  const check::ReplayResult replayed =
      check::replay(loaded->scenario, *loaded);
  EXPECT_TRUE(replayed.matches) << replayed.divergence;
}

TEST(TraceHeader, SwimTracesStayByteIdenticalToPreBackendFormat) {
  // The header emits the membership key only when it differs from "swim", so
  // pre-existing recordings (and their digests) remain valid.
  harness::Scenario s;
  s.name = "swim-header";
  s.summary = "x";
  s.cluster_size = 4;
  s.quiesce = sec(2);
  s.run_length = sec(5);
  check::TraceRecorder rec(s, false, false);
  harness::run(s, {&rec});
  std::ostringstream os;
  check::save_trace(rec.trace(), os);
  EXPECT_EQ(os.str().find("membership"), std::string::npos);

  std::istringstream is(os.str());
  std::string error;
  const auto loaded = check::load_trace(is, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->scenario.membership, "swim");  // parse default
}

}  // namespace
}  // namespace lifeguard::membership
