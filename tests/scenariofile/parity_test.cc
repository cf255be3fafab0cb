// Byte-parity between run-from-registry and export -> load -> run.
//
// Scenario files are only trustworthy as versioned data if loading one back
// reproduces the in-memory scenario *bit for bit*: same Rng draw order, same
// event stream, same trace bytes. The suite runs every non-big registry
// scenario both ways and compares the full RunResult plus an FNV-1a 64
// digest of the saved trace (header, transitions, fault markers, metric
// samples — every byte). A second test pins campaign artifacts: a campaign
// whose base came through the file format emits byte-identical JSONL/CSV at
// jobs=1 and jobs=8, matching the registry-based campaign exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/spec.h"
#include "check/trace.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Captured {
  RunResult result;
  std::uint64_t trace_digest = 0;
};

Captured capture(const Scenario& s) {
  check::TraceRecorder rec(s, /*include_datagrams=*/false,
                           /*include_probe_spans=*/false);
  Captured c;
  c.result = run(s, {&rec});
  std::ostringstream os;
  check::save_trace(rec.trace(), os);
  c.trace_digest = fnv1a(os.str());
  return c;
}

TEST(ScenarioFileParity, EveryRegistryScenarioRunsIdenticallyAfterReload) {
  std::vector<Scenario> all;
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    if (s.cluster_size < 1000) all.push_back(s);  // big-* tier runs out of band
  }
  ASSERT_EQ(all.size(), 22u);

  struct Outcome {
    std::string name;
    std::string load_error;
    Captured from_registry;
    Captured from_file;
  };
  std::vector<Outcome> outcomes(all.size());

  // Independent deterministic runs — spread them like campaign trials.
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < hw; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= all.size()) return;
        Outcome& o = outcomes[i];
        o.name = all[i].name;
        const auto loaded =
            ScenarioFile::from_json(ScenarioFile::to_json(all[i]),
                                    o.load_error);
        if (!loaded) continue;
        o.from_registry = capture(all[i]);
        o.from_file = capture(*loaded);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (const Outcome& o : outcomes) {
    ASSERT_TRUE(o.load_error.empty()) << o.name << ": " << o.load_error;
    const RunResult& a = o.from_registry.result;
    const RunResult& b = o.from_file.result;
    EXPECT_EQ(a.fp_events, b.fp_events) << o.name;
    EXPECT_EQ(a.fp_healthy_events, b.fp_healthy_events) << o.name;
    EXPECT_EQ(a.victims, b.victims) << o.name;
    EXPECT_EQ(a.first_detect, b.first_detect) << o.name;
    EXPECT_EQ(a.full_dissem, b.full_dissem) << o.name;
    EXPECT_EQ(a.msgs_sent, b.msgs_sent) << o.name;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << o.name;
    EXPECT_TRUE(a.checks == b.checks) << o.name;
    EXPECT_EQ(o.from_registry.trace_digest, o.from_file.trace_digest)
        << o.name << ": trace bytes diverged after export -> load";
  }
}

TEST(ScenarioFileParity, CampaignArtifactsMatchAcrossLoadAndJobsLevels) {
  Campaign c;
  c.name = "filed-campaign";
  c.base = *ScenarioRegistry::builtin().find("partition-split-heal");
  c.base.cluster_size = 12;
  c.base.timeline.entry(0).victims = fault::VictimSelector::uniform(4);
  c.base.run_length = sec(90);
  c.base.checks = check::Spec::all();
  c.repetitions = 4;

  std::string error;
  const auto loaded =
      ScenarioFile::from_json(ScenarioFile::to_json(c.base), error);
  ASSERT_TRUE(loaded.has_value()) << error;

  auto artifacts = [&](const Scenario& base, int jobs) {
    Campaign run_c = c;
    run_c.base = base;
    run_c.jobs = jobs;
    std::ostringstream jsonl, csv;
    JsonlReporter jr(jsonl);
    CsvReporter cr(csv);
    run(run_c, {&jr, &cr});
    return std::pair{jsonl.str(), csv.str()};
  };

  const auto registry_seq = artifacts(c.base, 1);
  const auto registry_par = artifacts(c.base, 8);
  const auto loaded_seq = artifacts(*loaded, 1);
  const auto loaded_par = artifacts(*loaded, 8);
  EXPECT_EQ(registry_seq, registry_par);
  EXPECT_EQ(registry_seq, loaded_seq);
  EXPECT_EQ(registry_seq, loaded_par);
}

}  // namespace
}  // namespace lifeguard::harness
