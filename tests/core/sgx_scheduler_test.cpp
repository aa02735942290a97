// Behavioural tests of the SGX-aware scheduler against a live simulated
// cluster with the full monitoring pipeline.
#include "core/sgx_scheduler.hpp"

#include <gtest/gtest.h>

#include "exp/fixture.hpp"
#include "sim/fault.hpp"

namespace sgxo::core {
namespace {

using namespace sgxo::literals;

cluster::PodSpec sgx_pod(const std::string& name, Pages request,
                         Bytes actual, Duration duration) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = actual;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, request}, {0_B, request},
                                    behavior);
}

cluster::PodSpec standard_pod(const std::string& name, Bytes request,
                              Bytes actual, Duration duration) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = actual;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {request, Pages{0}},
                                    {request, Pages{0}}, behavior);
}

TEST(SgxScheduler, DefaultNamesDeriveFromPolicy) {
  EXPECT_EQ(SgxAwareScheduler::default_name(PlacementPolicy::kBinpack),
            "sgx-binpack");
  EXPECT_EQ(SgxAwareScheduler::default_name(PlacementPolicy::kSpread),
            "sgx-spread");
}

TEST(SgxScheduler, SchedulesSgxPodOntoSgxNode) {
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  cluster.api().submit(sgx_pod("e", Pages{1024}, 4_MiB,
                               Duration::seconds(30)));
  ASSERT_TRUE(cluster.run_until_quiescent(1, Duration::minutes(10)));
  cluster.stop_all();
  const orch::PodRecord& record = cluster.api().pod("e");
  EXPECT_EQ(record.phase, cluster::PodPhase::kSucceeded);
  EXPECT_TRUE(record.node == "sgx-1" || record.node == "sgx-2");
}

TEST(SgxScheduler, StandardPodsAvoidSgxNodes) {
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  for (int i = 0; i < 8; ++i) {
    cluster.api().submit(standard_pod("std-" + std::to_string(i), 4_GiB,
                                      4_GiB, Duration::seconds(60)));
  }
  ASSERT_TRUE(cluster.run_until_quiescent(8, Duration::minutes(30)));
  cluster.stop_all();
  for (int i = 0; i < 8; ++i) {
    const auto& record = cluster.api().pod("std-" + std::to_string(i));
    EXPECT_TRUE(record.node == "node-1" || record.node == "node-2")
        << record.node;
  }
}

TEST(SgxScheduler, MeasuredUsageAllowsPackingBeyondDeclarations) {
  // Two pods each *declare* 60 % of the EPC but *use* only 10 %. A
  // request-only scheduler could never co-locate them; the SGX-aware
  // scheduler sees the measured usage... but the device plugin's page
  // accounting still forbids co-location (no over-commitment, §V-A), so
  // they must land on *different* SGX nodes instead of queueing.
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  const Pages declared{14'000};  // ~60 % of 23 936
  cluster.api().submit(sgx_pod("e1", declared, 8_MiB, Duration::minutes(5)));
  cluster.api().submit(sgx_pod("e2", declared, 8_MiB, Duration::minutes(5)));
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
  const auto& r1 = cluster.api().pod("e1");
  const auto& r2 = cluster.api().pod("e2");
  EXPECT_EQ(r1.phase, cluster::PodPhase::kRunning);
  EXPECT_EQ(r2.phase, cluster::PodPhase::kRunning);
  EXPECT_NE(r1.node, r2.node);
  cluster.stop_all();
}

TEST(SgxScheduler, MeasuredUsageBlocksUnderDeclaredSquatter) {
  // Inverse case (the Fig. 11 mechanism): a squatter declares 1 page but
  // uses half the EPC of its node. Without enforcement the usage shows up
  // in the metrics, so a later honest pod requesting 60 % of the EPC must
  // not be placed on the squatter's node.
  exp::ClusterConfig config;
  config.enforce_epc_limits = false;
  exp::SimulatedCluster cluster{config};
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();

  cluster.api().submit(sgx_pod("squatter", Pages{1}, mib(46.75),
                               Duration::hours(1)));
  // Let the squatter start and the probes observe it.
  cluster.sim().run_until(TimePoint::epoch() + Duration::seconds(40));
  const cluster::NodeName squat_node = cluster.api().pod("squatter").node;

  cluster.api().submit(sgx_pod("honest", Pages{14'000}, 8_MiB,
                               Duration::minutes(1)));
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(2));
  const auto& honest = cluster.api().pod("honest");
  EXPECT_EQ(honest.phase, cluster::PodPhase::kSucceeded);
  EXPECT_NE(honest.node, squat_node);
  cluster.stop_all();
}

TEST(SgxScheduler, PendingPodWaitsForCapacity) {
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  // Two EPC-filling pods occupy both SGX nodes; a third must wait.
  for (int i = 1; i <= 2; ++i) {
    cluster.api().submit(sgx_pod("big-" + std::to_string(i), Pages{23'000},
                                 mib(89.0), Duration::minutes(2)));
  }
  cluster.api().submit(sgx_pod("late", Pages{23'000}, mib(89.0),
                               Duration::minutes(2)));
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
  EXPECT_EQ(cluster.api().pod("late").phase, cluster::PodPhase::kPending);
  ASSERT_TRUE(cluster.run_until_quiescent(3, Duration::minutes(30)));
  EXPECT_EQ(cluster.api().pod("late").phase, cluster::PodPhase::kSucceeded);
  // The late pod waited at least until a big pod finished.
  EXPECT_GE(*cluster.api().pod("late").waiting_time(),
            Duration::minutes(1));
  cluster.stop_all();
}

TEST(SgxScheduler, BothPoliciesRunSideBySide) {
  // §V-B: multiple schedulers operate concurrently; pods select one.
  exp::SimulatedCluster cluster;
  auto& binpack = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  auto& spread = cluster.add_sgx_scheduler(PlacementPolicy::kSpread);
  cluster.start_monitoring();
  auto p1 = standard_pod("via-binpack", 1_GiB, 1_GiB, Duration::seconds(30));
  p1.scheduler_name = binpack.name();
  auto p2 = standard_pod("via-spread", 1_GiB, 1_GiB, Duration::seconds(30));
  p2.scheduler_name = spread.name();
  cluster.api().submit(p1);
  cluster.api().submit(p2);
  ASSERT_TRUE(cluster.run_until_quiescent(2, Duration::minutes(10)));
  cluster.stop_all();
  EXPECT_EQ(binpack.total_bound(), 1u);
  EXPECT_EQ(spread.total_bound(), 1u);
}

TEST(SgxScheduler, CustomNameOverride) {
  exp::SimulatedCluster cluster;
  auto& scheduler =
      cluster.add_sgx_scheduler(PlacementPolicy::kBinpack, "my-sched");
  EXPECT_EQ(scheduler.name(), "my-sched");
  EXPECT_EQ(scheduler.policy(), PlacementPolicy::kBinpack);
}

TEST(SgxScheduler, MetricsWindowConfigurable) {
  exp::ClusterConfig config;
  config.metrics_window = Duration::seconds(40);
  exp::SimulatedCluster cluster{config};
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  EXPECT_EQ(scheduler.metrics().window(), Duration::seconds(40));
}

TEST(SgxScheduler, IdleCycleRunsNoMetricsQuery) {
  // Views (and with them the Listing-1 queries) are built only when a
  // pending pod reaches the feasibility check: a cycle with an empty
  // queue leaves the last query's diagnostics as they were, although the
  // TSDB keeps gaining samples a query would have scanned.
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  cluster.api().submit(sgx_pod("first", Pages{1000},
                               Pages{1000}.as_bytes(), Duration::hours(1)));
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
  // Bound in a cycle that queried a window holding `first`'s samples.
  cluster.api().submit(sgx_pod("second", Pages{1000},
                               Pages{1000}.as_bytes(), Duration::hours(1)));
  cluster.sim().run_until(TimePoint::epoch() + Duration::seconds(66));
  ASSERT_FALSE(cluster.api().pod("second").node.empty());
  const ClusterMetrics::QueryDiagnostics last = scheduler.metrics()
                                                    .last_query_stats();
  ASSERT_GT(last.series_scanned, 0u);
  const std::uint64_t cycles = scheduler.cycles();

  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(3));
  EXPECT_GT(scheduler.cycles(), cycles + 20);
  const ClusterMetrics::QueryDiagnostics& idle =
      scheduler.metrics().last_query_stats();
  EXPECT_EQ(idle.shards_scanned, last.shards_scanned);
  EXPECT_EQ(idle.series_scanned, last.series_scanned);
  EXPECT_EQ(idle.points_scanned, last.points_scanned);
  EXPECT_EQ(idle.rollup_level_us, last.rollup_level_us);
  // The same query now would scan `second`'s series too.
  const ClusterMetrics fresh{cluster.db(), scheduler.metrics().window()};
  (void)fresh.memory_per_pod(cluster.sim().now());
  EXPECT_GT(fresh.last_query_stats().series_scanned, last.series_scanned);
  cluster.stop_all();
}

TEST(SgxScheduler, IdleCyclesUnderStaleReadsStillCountAsDegraded) {
  // The staleness check runs on every cycle, idle or not: an outage that
  // hits while nothing is pending is still counted, cycle by cycle.
  exp::SimulatedCluster cluster;
  sim::FaultInjector injector{cluster.sim()};
  auto& scheduler = cluster.add_sgx_scheduler(PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  cluster.install_fault_handlers(injector);
  cluster.api().submit(sgx_pod("enclave", Pages{1000},
                               Pages{1000}.as_bytes(), Duration::hours(2)));
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
  ASSERT_EQ(cluster.api().pod("enclave").phase, cluster::PodPhase::kRunning);
  ASSERT_EQ(scheduler.degraded_cycles(), 0u);

  // Queries see nothing newer than t=1min until t=6min; the 60 s
  // threshold trips a minute in.
  sim::FaultSpec stale;
  stale.kind = sim::FaultKind::kTsdbStaleReads;
  stale.duration = Duration::minutes(5);
  injector.arm(sim::FaultPlan{{stale}});
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(3));
  const std::uint64_t cycles = scheduler.cycles();
  const std::uint64_t degraded = scheduler.degraded_cycles();
  EXPECT_GT(degraded, 0u);
  cluster.sim().run_until(TimePoint::epoch() + Duration::minutes(5));
  orch::PodFilter pending;
  pending.phase = cluster::PodPhase::kPending;
  EXPECT_TRUE(cluster.api().list_pods(pending).empty());
  EXPECT_GT(scheduler.cycles(), cycles);
  EXPECT_EQ(scheduler.degraded_cycles() - degraded,
            scheduler.cycles() - cycles);
  cluster.stop_all();
}

}  // namespace
}  // namespace sgxo::core
