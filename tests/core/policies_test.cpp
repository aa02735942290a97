#include "core/policies.hpp"

#include <gtest/gtest.h>

namespace sgxo::core {
namespace {

using namespace sgxo::literals;
using orch::NodeView;

NodeView view(const std::string& name, bool sgx, Bytes mem_cap,
              Bytes mem_used, Pages epc_cap = Pages{0},
              Pages epc_used = Pages{0}) {
  NodeView v;
  v.name = name;
  v.sgx_capable = sgx;
  v.memory_capacity = mem_cap;
  v.memory_used = mem_used;
  v.epc_capacity = epc_cap;
  v.epc_used = epc_used;
  v.epc_requested = epc_used;
  return v;
}

orch::PodRecord standard_pod(Bytes request) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = request;
  behavior.duration = Duration::seconds(30);
  return orch::PodRecord{cluster::make_stressor_pod(
      "p", {request, Pages{0}}, {request, Pages{0}}, behavior)};
}

orch::PodRecord sgx_pod(Pages request) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = request.as_bytes();
  behavior.duration = Duration::seconds(30);
  return orch::PodRecord{cluster::make_stressor_pod(
      "p", {0_B, request}, {0_B, request}, behavior)};
}

TEST(PolicyNames, Strings) {
  EXPECT_STREQ(to_string(PlacementPolicy::kBinpack), "binpack");
  EXPECT_STREQ(to_string(PlacementPolicy::kSpread), "spread");
}

TEST(Binpack, EmptyFeasibleSetGivesNothing) {
  EXPECT_EQ(binpack_select(standard_pod(1_GiB), {}), std::nullopt);
}

TEST(Binpack, ConsistentNodeOrderByName) {
  const std::vector<NodeView> feasible{
      view("node-b", false, 64_GiB, 0_B),
      view("node-a", false, 64_GiB, 32_GiB),
  };
  // Always the first node in the consistent (name) order, regardless of
  // current load — that is what packs jobs together.
  EXPECT_EQ(binpack_select(standard_pod(1_GiB), feasible), "node-a");
}

TEST(Binpack, SgxNodesSortedLastForStandardJobs) {
  const std::vector<NodeView> feasible{
      view("aaa-sgx", true, 8_GiB, 0_B, Pages{23'936}),
      view("zzz-node", false, 64_GiB, 0_B),
  };
  // Despite "aaa-sgx" sorting first lexicographically, the standard job
  // must prefer the non-SGX node to preserve EPC resources (§IV).
  EXPECT_EQ(binpack_select(standard_pod(1_GiB), feasible), "zzz-node");
}

TEST(Binpack, StandardJobUsesSgxNodeAsLastResort) {
  const std::vector<NodeView> feasible{
      view("sgx-1", true, 8_GiB, 0_B, Pages{23'936}),
  };
  EXPECT_EQ(binpack_select(standard_pod(1_GiB), feasible), "sgx-1");
}

TEST(Binpack, SgxJobTakesFirstSgxNode) {
  const std::vector<NodeView> feasible{
      view("sgx-2", true, 8_GiB, 0_B, Pages{23'936}),
      view("sgx-1", true, 8_GiB, 0_B, Pages{23'936}),
  };
  EXPECT_EQ(binpack_select(sgx_pod(Pages{100}), feasible), "sgx-1");
}

TEST(Spread, EmptyFeasibleSetGivesNothing) {
  EXPECT_EQ(spread_select(standard_pod(1_GiB), {}, {}), std::nullopt);
}

TEST(Spread, PicksLeastLoadedNodeForBalance) {
  const std::vector<NodeView> all{
      view("node-a", false, 64_GiB, 32_GiB),
      view("node-b", false, 64_GiB, 0_B),
  };
  // Placing on node-b evens the loads (stddev → minimal).
  EXPECT_EQ(spread_select(standard_pod(8_GiB), all, all), "node-b");
}

TEST(Spread, BalancesEpcForSgxJobs) {
  const std::vector<NodeView> all{
      view("node-1", false, 64_GiB, 0_B),
      view("sgx-1", true, 8_GiB, 0_B, Pages{23'936}, Pages{10'000}),
      view("sgx-2", true, 8_GiB, 0_B, Pages{23'936}, Pages{2'000}),
  };
  const std::vector<NodeView> feasible{all[1], all[2]};
  EXPECT_EQ(spread_select(sgx_pod(Pages{1000}), feasible, all), "sgx-2");
}

TEST(Spread, AvoidsSgxNodesForStandardJobsWhenPossible) {
  const std::vector<NodeView> all{
      // The SGX node is nearly empty, the standard node heavily loaded:
      // pure stddev would pick the SGX node, the EPC-preserving rule
      // must override.
      view("node-1", false, 64_GiB, 48_GiB),
      view("sgx-1", true, 64_GiB, 0_B, Pages{23'936}),
  };
  EXPECT_EQ(spread_select(standard_pod(1_GiB), all, all), "node-1");
}

TEST(Spread, FallsBackToSgxNodeWhenOnlyChoice) {
  const std::vector<NodeView> all{
      view("node-1", false, 64_GiB, 64_GiB),
      view("sgx-1", true, 64_GiB, 0_B, Pages{23'936}),
  };
  const std::vector<NodeView> feasible{all[1]};
  EXPECT_EQ(spread_select(standard_pod(1_GiB), feasible, all), "sgx-1");
}

TEST(Spread, DeterministicTieBreakByName) {
  const std::vector<NodeView> all{
      view("node-b", false, 64_GiB, 0_B),
      view("node-a", false, 64_GiB, 0_B),
  };
  EXPECT_EQ(spread_select(standard_pod(1_GiB), all, all), "node-a");
}

TEST(Spread, ConsidersClusterWideLoadVector) {
  // Three nodes; the candidate set only contains two, but the stddev must
  // be computed over all three.
  const std::vector<NodeView> all{
      view("node-a", false, 64_GiB, 16_GiB),
      view("node-b", false, 64_GiB, 16_GiB),
      view("node-c", false, 64_GiB, 48_GiB),
  };
  const std::vector<NodeView> feasible{all[0], all[1]};
  const auto chosen = spread_select(standard_pod(4_GiB), feasible, all);
  // Either of the equally-loaded nodes is fine; tie-break picks node-a.
  EXPECT_EQ(chosen, "node-a");
}

}  // namespace
}  // namespace sgxo::core
