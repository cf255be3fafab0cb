// The simulator's one name index: node i is id i, every node's runtime
// hands out the same index, and it holds exactly the cluster's names.
#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.h"
#include "swim/config.h"

namespace lifeguard::sim {
namespace {

TEST(SimulatorNames, NodesShareOneIndexThatHoldsExactlyTheClusterNames) {
  constexpr int kN = 12;
  SimParams params;
  params.seed = 21;
  Simulator sim(kN, swim::Config::lifeguard(), params);
  const NameIndex& names = sim.names();
  ASSERT_EQ(names.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(names.find("node-" + std::to_string(i)),
              static_cast<NameIndex::Id>(i));
    EXPECT_EQ(&sim.runtime(i).names(), &sim.names());
  }

  sim.start_all();
  sim.run_for(sec(20));
  ASSERT_TRUE(sim.converged(kN));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(names.find("node-5"), 5u);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(sim.node(i).members().size(), static_cast<std::size_t>(kN));
  }

  // A restarted incarnation interns its own name again and gets its id.
  sim.crash_node(5);
  sim.run_for(sec(5));
  sim.restart_node(5);
  sim.run_for(sec(30));
  EXPECT_TRUE(sim.converged(kN));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(names.find("node-5"), 5u);
  EXPECT_EQ(names.name(5), "node-5");
  EXPECT_EQ(sim.node(5).members().size(), static_cast<std::size_t>(kN));
}

}  // namespace
}  // namespace lifeguard::sim
