// Shared-state (Omega-style) scheduler framework tests: stable shard
// assignment, shard-filtered limited pulls, whole-shard cycles, work
// stealing, per-pod binds that lose cleanly to a rival, and shard
// validation.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "orch/api_server.hpp"
#include "orch/default_scheduler.hpp"
#include "pod_names.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name,
                             std::optional<Pages> epc = std::nullopt,
                             bool master = false) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 16;
  spec.memory = 64_GiB;
  if (epc.has_value()) spec.epc = sgx::EpcConfig::with_usable(epc->as_bytes());
  spec.is_master = master;
  return spec;
}

cluster::PodSpec standard_pod(const std::string& name,
                              Bytes memory = 1_GiB) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = memory;
  behavior.duration = Duration::hours(1);
  return cluster::make_stressor_pod(name, {memory, Pages{0}},
                                    {memory, Pages{0}}, behavior);
}

/// The first `count` names "pod-<i>" that hash into `shard` of
/// `shard_count`, in ascending i.
std::vector<cluster::PodName> names_in_shard(std::uint32_t shard,
                                             std::uint32_t shard_count,
                                             std::size_t count) {
  std::vector<cluster::PodName> names;
  for (int i = 0; names.size() < count; ++i) {
    const std::string name = "pod-" + std::to_string(i);
    if (shard_of(name, shard_count) == shard) names.push_back(name);
  }
  return names;
}

TEST(ShardOf, IsAPureFunctionOfTheName) {
  // Stability across calls (and, by construction, across processes): the
  // shard key never depends on iteration order, seeds or registration.
  for (int i = 0; i < 50; ++i) {
    const cluster::PodName pod = "pod-" + std::to_string(i);
    EXPECT_EQ(shard_of(pod, 4), shard_of(pod, 4));
    EXPECT_LT(shard_of(pod, 4), 4u);
    EXPECT_EQ(shard_of(pod, 1), 0u);
  }
  EXPECT_THROW((void)shard_of("p", 0), ContractViolation);
}

/// One standard worker, one master, a DefaultScheduler host.
class SharedStateFixture : public ::testing::Test {
 protected:
  SharedStateFixture()
      : api_(sim_),
        node_(machine("node-1")),
        master_(machine("master", std::nullopt, /*master=*/true)),
        kubelet_(sim_, node_, perf_, registry_, api_),
        kubelet_m_(sim_, master_, perf_, registry_, api_) {
    api_.register_node(node_, kubelet_);
    api_.register_node(master_, kubelet_m_);
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node node_;
  cluster::Node master_;
  cluster::Kubelet kubelet_;
  cluster::Kubelet kubelet_m_;
};

TEST_F(SharedStateFixture, ShardFilteredPullsPartitionTheQueue) {
  for (int i = 0; i < 40; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = api_.default_scheduler();
  filter.shard_count = 4;
  std::set<cluster::PodName> seen;
  std::size_t total = 0;
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    filter.shard = shard;
    for (const PodRecord* record : api_.list_pods(filter)) {
      EXPECT_EQ(shard_of(record->spec.name, 4), shard);
      EXPECT_TRUE(seen.insert(record->spec.name).second)
          << record->spec.name << " appeared in two shards";
      ++total;
    }
  }
  // The shards exactly cover the queue.
  EXPECT_EQ(total, 40u);
}

TEST_F(SharedStateFixture, SharedStateCycleDrainsOwnShardFirst) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  SharedStateConfig config;
  config.shard = 0;
  config.shard_count = 2;
  worker.enable_shared_state(config);

  for (int i = 0; i < 20; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  std::size_t own_shard = 0;
  for (int i = 0; i < 20; ++i) {
    if (shard_of("pod-" + std::to_string(i), 2) == 0) ++own_shard;
  }
  ASSERT_GT(own_shard, 0u);

  // One cycle binds the whole own shard (the node fits everything)
  // without stealing.
  EXPECT_EQ(worker.run_once(), own_shard);
  EXPECT_EQ(worker.steal_cycles(), 0u);

  // The next cycle finds shard 0 dry and steals the neighbour's backlog.
  EXPECT_EQ(worker.run_once(), 20u - own_shard);
  EXPECT_EQ(worker.steal_cycles(), 1u);
  EXPECT_TRUE(pending_names(api_, api_.default_scheduler()).empty());
}

TEST_F(SharedStateFixture, FleetReplicaBindsItsWholeShardInOneCycle) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  worker.enable_shared_state(SharedStateConfig{0, 2});

  // 100 pods of the own shard, all fitting node-1: a replica's pull is not
  // capped, so one cycle places them all.
  for (const cluster::PodName& name : names_in_shard(0, 2, 100)) {
    api_.submit(standard_pod(name, 256_MiB));
  }
  EXPECT_EQ(worker.run_once(), 100u);
  EXPECT_EQ(worker.steal_cycles(), 0u);
  EXPECT_TRUE(pending_names(api_, api_.default_scheduler()).empty());
}

TEST(FleetRace, LostBindLeavesTheNodeToAYoungerPodInTheSameCycle) {
  // Three SGX workers with EPC for exactly one pod each.
  constexpr Pages kSlot{512};
  sim::Simulation sim;
  ApiServer api{sim};
  sgx::PerfModel perf;
  cluster::ImageRegistry registry;
  cluster::Node sgx1{machine("sgx-1", kSlot)};
  cluster::Node sgx2{machine("sgx-2", kSlot)};
  cluster::Node sgx3{machine("sgx-3", kSlot)};
  cluster::Node master{machine("master", std::nullopt, /*master=*/true)};
  cluster::Kubelet kubelet1{sim, sgx1, perf, registry, api};
  cluster::Kubelet kubelet2{sim, sgx2, perf, registry, api};
  cluster::Kubelet kubelet3{sim, sgx3, perf, registry, api};
  cluster::Kubelet kubelet_m{sim, master, perf, registry, api};
  api.register_node(sgx1, kubelet1);
  api.register_node(sgx2, kubelet2);
  api.register_node(sgx3, kubelet3);
  api.register_node(master, kubelet_m);

  DefaultScheduler worker{sim, api, Duration::seconds(5), "replica-0"};
  worker.enable_shared_state(SharedStateConfig{0, 2});

  // Oldest to youngest, all in the worker's shard.
  const std::vector<cluster::PodName> pods = names_in_shard(0, 2, 3);
  for (const cluster::PodName& name : pods) {
    cluster::PodBehavior behavior;
    behavior.sgx = true;
    behavior.actual_usage = kSlot.as_bytes();
    behavior.duration = Duration::hours(1);
    api.submit(cluster::make_stressor_pod(name, {0_B, kSlot}, {0_B, kSlot},
                                          behavior));
  }

  // A rival reacting to the worker's first bind takes the second pod and
  // puts it on sgx-3 — not on sgx-2, where the worker's spread policy is
  // about to send it.
  bool fired = false;
  const ApiServer::WatchId rival =
      api.watch_pods([&](const ApiServer::PodUpdate& update) {
        if (fired || update.pod != pods[0] ||
            update.phase != cluster::PodPhase::kBound) {
          return;
        }
        fired = true;
        EXPECT_TRUE(
            api.try_bind(pods[1], "sgx-3", api.pod(pods[1]).resource_version)
                .bound());
      });

  // The worker's bind of the second pod loses, so it reserves nothing:
  // the youngest pod gets sgx-2 in the same cycle.
  EXPECT_EQ(worker.run_once(), 2u);
  EXPECT_EQ(worker.bind_conflicts(), 1u);
  EXPECT_EQ(api.pod(pods[0]).node, "sgx-1");
  EXPECT_EQ(api.pod(pods[1]).node, "sgx-3");
  EXPECT_EQ(api.pod(pods[2]).node, "sgx-2");
  api.unwatch(rival);
}

TEST_F(SharedStateFixture, RejectsAShardOutsideTheFleet) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  SharedStateConfig bad;
  bad.shard = 3;
  bad.shard_count = 2;
  EXPECT_THROW(worker.enable_shared_state(bad), ContractViolation);
}

TEST_F(SharedStateFixture, HealthReportsSharedStateCounters) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-1"};
  SharedStateConfig config;
  config.shard = 1;
  config.shard_count = 4;
  worker.enable_shared_state(config);
  const Scheduler::Health health = worker.health();
  EXPECT_EQ(health.shard, 1u);
  EXPECT_EQ(health.shard_count, 4u);
  EXPECT_EQ(health.steal_cycles, 0u);

  // A scheduler that never joined a fleet is shard 0 of 1.
  const DefaultScheduler lone{sim_, api_, Duration::seconds(5), "lone"};
  EXPECT_EQ(lone.health().shard, 0u);
  EXPECT_EQ(lone.health().shard_count, 1u);
}

}  // namespace
}  // namespace sgxo::orch
