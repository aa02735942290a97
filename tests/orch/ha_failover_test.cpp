// Control-plane failover tests for the shared-state fleet: two SGX-aware
// replicas share one scheduler name, each draining its own shard of the
// pending queue. A crashed replica needs no failover protocol — the
// survivor steals its shard once its own runs dry — and a restarted
// replica resumes on its own shard with none of its previous life's
// backoff state.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/sgx_scheduler.hpp"
#include "exp/fixture.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

constexpr Duration kPeriod = Duration::seconds(5);

cluster::PodSpec sgx_pod(const std::string& name, Pages pages,
                         Duration duration = Duration::seconds(60)) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, pages}, {0_B, pages},
                                    behavior);
}

/// The n-th name "<prefix>-<k>" that lands in `shard` of a 2-replica
/// fleet, so each test controls which replica owns which pod.
std::string name_in_shard(const std::string& prefix, std::uint32_t shard,
                          int n = 0) {
  for (int k = 0;; ++k) {
    const std::string name = prefix + "-" + std::to_string(k);
    if (shard_of(name, 2) == shard && n-- == 0) return name;
  }
}

/// A 2-replica SGX-binpack fleet on the paper's 5-machine cluster.
class FleetFailoverFixture : public ::testing::Test {
 protected:
  FleetFailoverFixture() {
    fleet_ = cluster_.add_shared_state_fleet(2);
    cluster_.api().set_default_scheduler(fleet_[0]->name());
    cluster_.start_monitoring();
  }
  ~FleetFailoverFixture() override { cluster_.stop_all(); }

  void run_to(Duration t) {
    cluster_.sim().run_until(TimePoint::epoch() + t);
  }
  [[nodiscard]] TimePoint now() { return cluster_.sim().now(); }
  [[nodiscard]] cluster::PodPhase phase(const std::string& pod) {
    return cluster_.api().pod(pod).phase;
  }
  [[nodiscard]] std::size_t pending_in_shard(std::uint32_t shard) {
    PodFilter filter;
    filter.phase = cluster::PodPhase::kPending;
    filter.scheduler = fleet_[0]->name();
    filter.shard_count = 2;
    filter.shard = shard;
    return cluster_.api().list_pods(filter).size();
  }

  exp::SimulatedCluster cluster_;
  std::vector<core::SgxAwareScheduler*> fleet_;
};

TEST_F(FleetFailoverFixture, SurvivorStealsTheCrashedShardWithinOnePeriod) {
  // First wave: one pod per shard; each replica binds its own at t=5s.
  const std::string own_a = name_in_shard("p", 0, 0);
  const std::string theirs_a = name_in_shard("p", 1, 0);
  cluster_.api().submit(sgx_pod(own_a, Pages{4000}));
  cluster_.api().submit(sgx_pod(theirs_a, Pages{4000}));
  run_to(Duration::seconds(6));
  ASSERT_EQ(fleet_[0]->total_bound(), 1u);
  ASSERT_EQ(fleet_[1]->total_bound(), 1u);

  // Replica 1 dies mid-stream; the second wave arrives after the crash.
  fleet_[1]->crash();
  ASSERT_TRUE(fleet_[1]->crashed());
  const std::string own_b = name_in_shard("p", 0, 1);
  const std::string theirs_b = name_in_shard("p", 1, 1);
  cluster_.api().submit(sgx_pod(own_b, Pages{4000}));
  cluster_.api().submit(sgx_pod(theirs_b, Pages{4000}));

  // The survivor's t=10s cycle drains its own shard and steals nothing.
  run_to(Duration::seconds(11));
  ASSERT_EQ(pending_in_shard(0), 0u);
  const TimePoint dry = now();
  EXPECT_EQ(phase(theirs_b), cluster::PodPhase::kPending);
  EXPECT_EQ(fleet_[0]->steal_cycles(), 0u);

  // Within one period of its own shard running dry, the survivor binds the
  // crashed replica's backlog through a steal.
  cluster_.sim().run_until(dry + kPeriod);
  EXPECT_NE(phase(theirs_b), cluster::PodPhase::kPending);
  EXPECT_EQ(pending_in_shard(1), 0u);
  EXPECT_EQ(fleet_[0]->steal_cycles(), 1u);
  EXPECT_EQ(fleet_[0]->total_bound(), 3u);
  EXPECT_EQ(fleet_[1]->total_bound(), 1u);
}

TEST_F(FleetFailoverFixture, CrashMidStreamLosesAndDuplicatesNothing) {
  for (int i = 0; i < 2; ++i) {
    cluster_.api().submit(sgx_pod(name_in_shard("p", 0, i), Pages{15'000}));
    cluster_.api().submit(sgx_pod(name_in_shard("p", 1, i), Pages{15'000}));
  }
  // One 15k-page pod fits per SGX node: replica 0 cycles first at t=5s
  // and fills both nodes from its own shard, so the queue is half drained
  // when replica 1 dies with its whole shard still pending.
  run_to(Duration::seconds(7));
  ASSERT_EQ(fleet_[0]->total_bound(), 2u);
  ASSERT_EQ(pending_in_shard(1), 2u);
  fleet_[1]->crash();

  run_to(Duration::minutes(10));
  EXPECT_EQ(cluster_.api().pod_count(), 4u);  // no retry appeared
  std::map<std::string, int> placements;
  for (const Event& event : cluster_.api().events()) {
    if (event.message.rfind("Scheduled to ", 0) == 0) ++placements[event.pod];
  }
  for (const PodRecord* record : cluster_.api().all_pods()) {
    EXPECT_EQ(record->phase, cluster::PodPhase::kSucceeded)
        << record->spec.name;
    EXPECT_EQ(placements[record->spec.name], 1) << record->spec.name;
  }
  EXPECT_EQ(fleet_[0]->total_bound(), 4u);
  EXPECT_EQ(fleet_[1]->total_bound(), 0u);
  EXPECT_EQ(cluster_.api().bind_conflicts(), 0u);
}

TEST_F(FleetFailoverFixture, RestartResumesCyclingOnTheOwnShard) {
  fleet_[1]->crash();
  // Restarted off the fleet's 5 s grid, replica 1 cycles at t=17.5s,
  // ahead of the survivor's t=20s cycle that would steal the pod.
  run_to(Duration::millis(12'500));
  const std::uint64_t cycles_while_dead = fleet_[1]->cycles();
  fleet_[1]->restart();
  EXPECT_FALSE(fleet_[1]->crashed());
  run_to(Duration::seconds(16));
  const std::string pod = name_in_shard("q", 1);
  cluster_.api().submit(sgx_pod(pod, Pages{1000}));

  run_to(Duration::seconds(18));
  EXPECT_GT(fleet_[1]->cycles(), cycles_while_dead);
  EXPECT_NE(phase(pod), cluster::PodPhase::kPending);
  EXPECT_EQ(fleet_[1]->total_bound(), 1u);
  EXPECT_EQ(fleet_[1]->steal_cycles(), 0u);
  EXPECT_EQ(fleet_[0]->total_bound(), 0u);
}

TEST_F(FleetFailoverFixture, RestartDropsBackoffsArmedBeforeTheCrash) {
  for (core::SgxAwareScheduler* replica : fleet_) {
    replica->set_bind_backoff(Duration::seconds(60), Duration::minutes(10));
  }
  // Replica 0 stays down, so only replica 1 ever sees the pod. A short
  // filler holds sgx-1; the pinned 15k-page pod fits nowhere, and
  // replica 1's t=5s cycle arms a 60 s backoff against it.
  fleet_[0]->crash();
  cluster::PodSpec filler = sgx_pod("filler", Pages{15'000},
                                    Duration::seconds(5));
  filler.node_selector = "sgx-1";
  cluster_.api().submit(filler);
  ASSERT_TRUE(cluster_.api()
                  .try_bind("filler", "sgx-1",
                            cluster_.api().pod("filler").resource_version)
                  .bound());
  const std::string pod = name_in_shard("big", 1);
  cluster::PodSpec big = sgx_pod(pod, Pages{15'000}, Duration::hours(1));
  big.node_selector = "sgx-1";
  cluster_.api().submit(big);
  run_to(Duration::seconds(6));
  ASSERT_EQ(phase(pod), cluster::PodPhase::kPending);
  fleet_[1]->crash();

  // The filler finishes and its samples age out of the metrics window,
  // all well before the 60 s backoff would elapse.
  run_to(Duration::seconds(42));
  ASSERT_EQ(phase("filler"), cluster::PodPhase::kSucceeded);

  // Restarted, replica 1 must bind on its first cycle (t=47s). Had it
  // kept the old backoff, it would skip the pod until t=65s.
  fleet_[1]->restart();
  run_to(Duration::seconds(48));
  EXPECT_EQ(fleet_[1]->backoff_skips(), 0u);
  EXPECT_NE(phase(pod), cluster::PodPhase::kPending);
}

}  // namespace
}  // namespace sgxo::orch
