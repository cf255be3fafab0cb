// The committed scenarios/*.json are the registry.
//
// ScenarioRegistry::builtin() parses the copies of scenarios/*.json that the
// build embeds, in the order CMakeLists.txt lists. These tests read the files
// themselves and hold the registry to them: every file but baselines.json is
// one registry entry under its stem, and every file is exactly what
// ScenarioFile::to_json writes for its entry, so a hand edit that the codec
// would write differently fails here, naming the file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {
namespace {

namespace fs = std::filesystem;

const fs::path& scenarios_dir() {
  static const fs::path dir = fs::path(LIFEGUARD_SOURCE_DIR) / "scenarios";
  return dir;
}

TEST(ScenarioCatalog, RegistryNamesAreTheCommittedFileStems) {
  std::set<std::string> stems;
  for (const auto& entry : fs::directory_iterator(scenarios_dir())) {
    const fs::path& p = entry.path();
    if (p.extension() == ".json" && p.stem() != "baselines") {
      stems.insert(p.stem().string());
    }
  }
  const std::vector<std::string> names = ScenarioRegistry::builtin().names();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), stems);
  EXPECT_EQ(names.size(), stems.size());
}

TEST(ScenarioCatalog, EveryFileIsItsEntryInCanonicalForm) {
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    const std::string file = "scenarios/" + ScenarioFile::filename(s);
    std::ifstream in(scenarios_dir() / ScenarioFile::filename(s),
                     std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << file;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(ScenarioFile::to_json(s), bytes.str())
        << file << " is not in the form ScenarioFile::to_json writes";
  }
}

}  // namespace
}  // namespace lifeguard::harness
