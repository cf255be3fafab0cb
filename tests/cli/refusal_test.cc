// scenario_runner's flag rule, end to end: each mode takes only the flags its
// row of the mode table lists, and a bad value is refused by name. Every
// command line below must exit 2 before doing any work, with a message that
// names the flag at fault, and leave its working directory empty.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace {

struct Refusal {
  std::string args;  // the command line after the program name
  std::string flag;  // the flag the message must name
};

struct Outcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

Outcome run_in(const std::filesystem::path& dir, const std::string& args) {
  const std::string cmd = "cd '" + dir.string() + "' && '" SCENARIO_RUNNER
                          "' " + args + " 2>&1";
  Outcome out;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

void expect_refused(const std::vector<Refusal>& cases) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "refusal-XXXXXX").string();
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::filesystem::path dir = tmpl;
  for (const Refusal& c : cases) {
    SCOPED_TRACE(c.args);
    const Outcome r = run_in(dir, c.args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find(c.flag), std::string::npos)
        << "the message does not name " << c.flag << ":\n" << r.output;
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << "a refused run wrote a file";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::filesystem::remove_all(entry.path());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ScenarioRunnerRefusals, BadValuesAreRefusedByName) {
  expect_refused({
      {"--paper nope", "--paper"},
      {"--paper table4 --seed -1", "--seed"},
      {"--paper table4 --reps abc", "--reps"},
  });
}

TEST(ScenarioRunnerRefusals, RegistryModesListAndReplayTakeOnlyTheirFlags) {
  expect_refused({
      {"--validate-scenarios scenarios --nodes 5 --seed 3 --campaign",
       "--nodes"},
      {"--list --nodes 5", "--nodes"},
      {"--list --json --markdown", "--markdown"},
      // A removed mode is an unknown option.
      {"--export-scenarios exported", "--export-scenarios"},
      {"--record-baselines recorded.json --nodes 5", "--nodes"},
      {"--gate-registry scenarios/baselines.json --check", "--check"},
      {"--gate-registry scenarios/baselines.json --jobs 2 --jobs 3",
       "--jobs"},
      {"--paper table4 --nodes 5", "--nodes"},
      {"--paper table4 --campaign", "--campaign"},
      {"--replay missing.trace.jsonl --seed 3", "--seed"},
  });
}

TEST(ScenarioRunnerRefusals, RunCampaignAndFuzzIgnoreNoFlag) {
  const std::string run = "--nodes 10 --length 5 ";
  expect_refused({
      {run + "--reps 3", "--reps"},
      {run + "--jobs 3", "--jobs"},
      {run + "--fuzz-seed 9", "--fuzz-seed"},
      {run + "--fuzz-out fo", "--fuzz-out"},
      {run + "--include-big", "--include-big"},
      {run + "--spans", "--spans"},
      {run + "--config swim --alpha 2", "--alpha"},
      {run + "--live-logs xx", "--live-logs"},
      {"--campaign " + run + "--live-logs ll", "--live-logs"},
      {"--campaign " + run + "--spans", "--spans"},
      {"--fuzz 2 " + run + "--json fz.json", "--json"},
      {"--fuzz 2 " + run + "--seed 99", "--seed"},
      {"--fuzz 2 " + run + "--reps 4", "--reps"},
  });
}

}  // namespace
