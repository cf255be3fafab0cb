// perf::Baseline JSON round trip and perf::compare on synthetic pairs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "perf/baseline.h"
#include "perf/compare.h"

namespace lifeguard::perf {
namespace {

Baseline sample_baseline() {
  Baseline b;
  b.suite = "micro";
  b.created = "2026-07-28 12:00:00";
  b.host = "Linux test x86_64";
  b.build = "gcc 12.2, NDEBUG";
  b.entries.push_back(
      {"micro/event-queue", 0.31, 4.1e6, 0.0, 0.0, 24576, 12});
  b.entries.push_back(
      {"sim/cluster-n64", 2.5, 12.0, 250000.0, 91000.5, 131072, 1});
  return b;
}

TEST(PerfBaseline, JsonRoundTripPreservesEveryField) {
  const Baseline b = sample_baseline();
  std::string error;
  const auto parsed = from_json(to_json(b), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->suite, b.suite);
  EXPECT_EQ(parsed->created, b.created);
  EXPECT_EQ(parsed->host, b.host);
  EXPECT_EQ(parsed->build, b.build);
  ASSERT_EQ(parsed->entries.size(), b.entries.size());
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].name, b.entries[i].name);
    EXPECT_DOUBLE_EQ(parsed->entries[i].items_per_s,
                     b.entries[i].items_per_s);
    EXPECT_DOUBLE_EQ(parsed->entries[i].events_per_s,
                     b.entries[i].events_per_s);
    EXPECT_DOUBLE_EQ(parsed->entries[i].datagrams_per_s,
                     b.entries[i].datagrams_per_s);
    EXPECT_EQ(parsed->entries[i].peak_rss_kb, b.entries[i].peak_rss_kb);
    EXPECT_EQ(parsed->entries[i].iterations, b.entries[i].iterations);
  }
}

TEST(PerfBaseline, CommitFingerprintRoundTripsAndStaysOptional) {
  Baseline b = sample_baseline();
  b.commit = "abc1234-dirty";
  std::string error;
  const auto parsed = from_json(to_json(b), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->commit, "abc1234-dirty");
  // Pre-commit-field documents (no "commit" key) still parse, with the
  // field left empty — and an empty commit is not serialized at all.
  const Baseline without = sample_baseline();
  EXPECT_EQ(to_json(without).find("\"commit\""), std::string::npos);
  const auto legacy = from_json(to_json(without), error);
  ASSERT_TRUE(legacy.has_value()) << error;
  EXPECT_TRUE(legacy->commit.empty());
}

TEST(PerfBaseline, GitFingerprintIsEmptyOrShaShaped) {
  // Environment-dependent on purpose: inside a checkout it is a short hex
  // sha with an optional "-dirty" suffix, elsewhere it degrades to empty.
  const std::string fp = git_fingerprint();
  if (fp.empty()) return;
  std::string sha = fp;
  const std::string suffix = "-dirty";
  if (sha.size() > suffix.size() &&
      sha.compare(sha.size() - suffix.size(), suffix.size(), suffix) == 0) {
    sha.resize(sha.size() - suffix.size());
  }
  EXPECT_GE(sha.size(), 7u);
  for (char c : sha) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << fp;
  }
}

TEST(PerfBaseline, UnknownKeysAreIgnoredForwardCompatibly) {
  const std::string doc = R"({
    "suite": "micro",
    "created": "2026-01-01 00:00:00",
    "host": "h",
    "build": "b",
    "schema_version": 2,
    "entries": [
      {"name": "x", "items_per_s": 10, "future_metric": 3.5}
    ]
  })";
  std::string error;
  const auto parsed = from_json(doc, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->entries.size(), 1u);
  EXPECT_EQ(parsed->entries[0].name, "x");
  EXPECT_DOUBLE_EQ(parsed->entries[0].items_per_s, 10.0);
}

TEST(PerfBaseline, MalformedDocumentsAreRejectedWithAnError) {
  std::string error;
  EXPECT_FALSE(from_json("", error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(from_json("{\"suite\": }", error).has_value());
  EXPECT_FALSE(from_json("{\"entries\": [{]}", error).has_value());
  EXPECT_FALSE(
      from_json("{\"suite\": \"unterminated", error).has_value());
}

// Every known numeric field is parsed strictly: a malformed value is a
// rejection naming the field, never a silently truncated or wrapped number.
TEST(PerfBaseline, MalformedNumbersAreRejectedNamingTheField) {
  struct Case {
    const char* field;
    const char* value;
  };
  for (const Case& c : {Case{"wall_s", "1.5.5"},        // not 1.5
                        Case{"peak_rss_kb", "12-34"},   // not 12
                        Case{"iterations", "1e300"}}) {  // not INT64_MIN
    const std::string doc = std::string(R"({"entries": [{"name": "x", ")") +
                            c.field + "\": " + c.value + "}]}";
    std::string error;
    EXPECT_FALSE(from_json(doc, error).has_value()) << doc;
    EXPECT_NE(error.find(c.field), std::string::npos)
        << c.field << ": " << error;
    EXPECT_NE(error.find("entries[0]"), std::string::npos) << error;
  }
}

TEST(PerfBaseline, FileRoundTrip) {
  const Baseline b = sample_baseline();
  const std::string path =
      (std::filesystem::temp_directory_path() / "perf_baseline_test.json")
          .string();
  std::string error;
  ASSERT_TRUE(save_baseline_file(b, path, error)) << error;
  const auto loaded = load_baseline_file(path, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->entries.size(), b.entries.size());
  std::remove(path.c_str());
  EXPECT_FALSE(load_baseline_file(path, error).has_value());
}

// ---------------------------------------------------------------------------
// compare

Baseline with_rates(std::vector<std::pair<std::string, double>> rates) {
  Baseline b;
  b.suite = "micro";
  for (auto& [name, rate] : rates) {
    Measurement m;
    m.name = name;
    m.items_per_s = rate;
    b.entries.push_back(std::move(m));
  }
  return b;
}

TEST(PerfCompare, FlagsOnlyRegressionsBeyondTheThreshold) {
  const Baseline old_b =
      with_rates({{"a", 100.0}, {"b", 100.0}, {"c", 100.0}});
  const Baseline new_b = with_rates({{"a", 95.0}, {"b", 80.0}, {"c", 130.0}});
  const CompareReport r = compare(old_b, new_b, 10.0);
  ASSERT_EQ(r.deltas.size(), 3u);
  EXPECT_FALSE(r.deltas[0].regression);  // -5% is inside the 10% threshold
  EXPECT_TRUE(r.deltas[1].regression);   // -20%
  EXPECT_FALSE(r.deltas[2].regression);  // +30% improvement
  EXPECT_TRUE(r.has_regression());
  EXPECT_NEAR(r.worst_regression_pct, -20.0, 1e-9);
  const std::string text = format_report(r);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
}

TEST(PerfCompare, CleanComparisonHasNoRegression) {
  const Baseline old_b = with_rates({{"a", 100.0}});
  const Baseline new_b = with_rates({{"a", 99.0}});
  const CompareReport r = compare(old_b, new_b, 10.0);
  EXPECT_FALSE(r.has_regression());
  EXPECT_DOUBLE_EQ(r.worst_regression_pct, 0.0);
}

TEST(PerfCompare, ReportsAddedAndDroppedCases) {
  const Baseline old_b = with_rates({{"a", 100.0}, {"dropped", 50.0}});
  const Baseline new_b = with_rates({{"a", 100.0}, {"added", 75.0}});
  const CompareReport r = compare(old_b, new_b, 10.0);
  ASSERT_EQ(r.only_in_old.size(), 1u);
  EXPECT_EQ(r.only_in_old[0], "dropped");
  ASSERT_EQ(r.only_in_new.size(), 1u);
  EXPECT_EQ(r.only_in_new[0], "added");
  EXPECT_FALSE(r.has_regression());  // missing cases report, not fail
}

TEST(PerfCompare, FallsBackToWallTimeWhenNoThroughputIsRecorded) {
  Measurement slow;
  slow.name = "walltime-only";
  slow.wall_s = 2.0;
  Measurement fast = slow;
  fast.wall_s = 1.0;
  Baseline old_b, new_b;
  old_b.entries.push_back(fast);  // 1/wall = 1.0
  new_b.entries.push_back(slow);  // 1/wall = 0.5 → 50% regression
  const CompareReport r = compare(old_b, new_b, 10.0);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(r.deltas[0].regression);
  EXPECT_NEAR(r.deltas[0].change_pct, -50.0, 1e-9);
}

}  // namespace
}  // namespace lifeguard::perf
