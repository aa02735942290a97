// Shared-state (Omega-style) scheduler framework tests: stable shard
// assignment, shard-filtered limited pulls, work stealing, the
// conflict-rate congestion controller, and shard validation.
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

cluster::PodSpec standard_pod(const std::string& name) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = 1_GiB;
  behavior.duration = Duration::hours(1);
  return cluster::make_stressor_pod(name, {1_GiB, Pages{0}}, {1_GiB, Pages{0}},
                                    behavior);
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

  // A limited pull returns the queue-order prefix of the shard.
  filter.shard = 0;
  filter.limit = 3;
  const auto limited = api_.list_pods(filter);
  EXPECT_LE(limited.size(), 3u);
  filter.limit = 0;
  const auto full = api_.list_pods(filter);
  for (std::size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i], full[i]);
  }
}

TEST_F(SharedStateFixture, SharedStateCycleDrainsOwnShardFirst) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  SharedStateConfig config;
  config.shard = 0;
  config.shard_count = 2;
  worker.enable_shared_state(config);
  EXPECT_TRUE(worker.shared_state_enabled());

  for (int i = 0; i < 20; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  std::size_t own_shard = 0;
  for (int i = 0; i < 20; ++i) {
    if (shard_of("pod-" + std::to_string(i), 2) == 0) ++own_shard;
  }
  ASSERT_GT(own_shard, 0u);

  // One cycle binds the whole own shard (the node fits everything), via
  // exactly one batch transaction, without stealing.
  EXPECT_EQ(worker.run_once(), own_shard);
  EXPECT_EQ(worker.batches(), 1u);
  EXPECT_EQ(worker.steal_cycles(), 0u);
  EXPECT_DOUBLE_EQ(worker.last_conflict_rate(), 0.0);

  // The next cycle finds shard 0 dry and steals the neighbour's backlog.
  EXPECT_EQ(worker.run_once(), 20u - own_shard);
  EXPECT_EQ(worker.steal_cycles(), 1u);
  EXPECT_TRUE(pending_names(api_, api_.default_scheduler()).empty());
}

TEST_F(SharedStateFixture, StrictPartitioningIdlesInsteadOfStealing) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  SharedStateConfig config;
  config.shard = 0;
  config.shard_count = 2;
  config.work_stealing = false;
  worker.enable_shared_state(config);

  // Pods all landing in shard 1 leave a strict shard-0 worker idle.
  std::size_t foreign = 0;
  for (int i = 0; foreign < 5; ++i) {
    const std::string name = "pod-" + std::to_string(i);
    if (shard_of(name, 2) == 1) {
      api_.submit(standard_pod(name));
      ++foreign;
    }
  }
  EXPECT_EQ(worker.run_once(), 0u);
  EXPECT_EQ(worker.steal_cycles(), 0u);
  EXPECT_EQ(worker.batches(), 0u);
}

TEST_F(SharedStateFixture, ConflictControllerShrinksRehardsAndRecovers) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  SharedStateConfig config;
  config.shard = 0;
  config.shard_count = 1;
  config.initial_batch = 32;
  config.min_batch = 8;
  config.max_batch = 64;
  config.reshard_after = 2;
  worker.enable_shared_state(config);
  EXPECT_EQ(worker.batch_capacity(), 32u);

  // A rival racing the worker mid-transaction: every time the worker's
  // batch binds a pod, the watch callback immediately binds the next
  // pending pod out from under the rest of the batch, so half the
  // worker's entries come back as conflicts.
  bool rival_active = false;
  const ApiServer::WatchId rival = api_.watch_pods(
      [&](const ApiServer::PodUpdate& update) {
        if (update.phase != cluster::PodPhase::kBound || rival_active) return;
        rival_active = true;
        const auto pending = pending_names(api_, api_.default_scheduler());
        if (!pending.empty()) {
          (void)api_.try_bind(pending.front(), "node-1",
                              api_.pod(pending.front()).resource_version);
        }
        rival_active = false;
      });

  for (int i = 0; i < 8; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  // Batch of 8: each worker bind lets the rival steal the next pod, so 4
  // bind and 4 conflict — rate 0.5 > shrink_above → capacity halves.
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_EQ(worker.bind_conflicts(), 4u);
  EXPECT_DOUBLE_EQ(worker.last_conflict_rate(), 0.5);
  EXPECT_EQ(worker.batch_capacity(), 16u);
  EXPECT_EQ(worker.reshards(), 0u);

  // A second contended batch reaches reshard_after: the steal origin
  // rotates (a no-op direction with one shard, but the counter records it).
  for (int i = 8; i < 16; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_EQ(worker.batch_capacity(), 8u);
  EXPECT_EQ(worker.reshards(), 1u);

  // With the rival gone a clean batch grows capacity back.
  api_.unwatch(rival);
  for (int i = 16; i < 20; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_DOUBLE_EQ(worker.last_conflict_rate(), 0.0);
  EXPECT_EQ(worker.batch_capacity(), 16u);
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
  EXPECT_TRUE(health.shared_state);
  EXPECT_EQ(health.shard, 1u);
  EXPECT_EQ(health.shard_count, 4u);
  EXPECT_EQ(health.batch_capacity, config.initial_batch);
}

}  // namespace
}  // namespace sgxo::orch
