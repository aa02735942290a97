#include <gtest/gtest.h>

#include "exp/fixture.hpp"
#include "exp/replay.hpp"

namespace sgxo::exp {
namespace {

using namespace sgxo::literals;

TEST(SimulatedCluster, BuildsPaperTestbed) {
  SimulatedCluster cluster;
  EXPECT_EQ(cluster.nodes().size(), 5u);
  EXPECT_EQ(cluster.sgx_node_count(), 2u);
  EXPECT_EQ(cluster.api().schedulable_nodes().size(), 4u);
  ASSERT_NE(cluster.find_node("sgx-1"), nullptr);
  EXPECT_TRUE(cluster.find_node("sgx-1")->has_sgx());
  EXPECT_EQ(cluster.find_node("ghost"), nullptr);
}

TEST(SimulatedCluster, EpcOverrideShrinksSgxNodes) {
  ClusterConfig config;
  config.epc_usable_override = 32_MiB;
  SimulatedCluster cluster{config};
  EXPECT_EQ(cluster.find_node("sgx-1")->epc_capacity().count(), 8192u);
  // Non-SGX machines unaffected.
  EXPECT_EQ(cluster.find_node("node-1")->epc_capacity().count(), 0u);
}

TEST(SimulatedCluster, StressImagePrePublished) {
  SimulatedCluster cluster;
  EXPECT_TRUE(cluster.registry().has("sebvaucher/sgx-base:stress-sgx"));
}

TEST(SimulatedCluster, QuiescenceRequiresExpectedPods) {
  SimulatedCluster cluster;
  // Nothing submitted: expecting 1 pod cannot succeed.
  EXPECT_FALSE(cluster.run_until_quiescent(1, Duration::minutes(1)));
  // Expecting 0 pods succeeds immediately.
  EXPECT_TRUE(cluster.run_until_quiescent(0, Duration::minutes(1)));
}

cluster::PodSpec short_pod(const std::string& name) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = 1_GiB;
  behavior.duration = Duration::seconds(20);
  return cluster::make_stressor_pod(name, {1_GiB, Pages{0}},
                                    {1_GiB, Pages{0}}, behavior);
}

/// A scheduling, monitored cluster: its periodic timers keep the event
/// queue busy, so run_until_quiescent stops on its check, never on idle.
class Quiescence : public ::testing::Test {
 protected:
  Quiescence() {
    cluster_.api().set_default_scheduler(
        cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack).name());
    cluster_.start_monitoring();
  }

  [[nodiscard]] cluster::PodPhase phase(const cluster::PodName& pod) {
    return cluster_.api().pod(pod).phase;
  }

  SimulatedCluster cluster_;
};

TEST_F(Quiescence, CountsPodsAlreadyTerminal) {
  cluster_.api().submit(short_pod("early"));
  ASSERT_TRUE(cluster_.run_until_quiescent(1, Duration::minutes(10)));
  ASSERT_EQ(phase("early"), cluster::PodPhase::kSucceeded);
  // The pod finished before this call: quiescent at once, no time passes.
  const TimePoint now = cluster_.sim().now();
  EXPECT_TRUE(cluster_.run_until_quiescent(1, Duration::minutes(10)));
  EXPECT_EQ(cluster_.sim().now(), now);
}

TEST_F(Quiescence, WaitsForPodsSubmittedMidRun) {
  cluster_.api().submit(short_pod("first"));
  const TimePoint late_at = cluster_.sim().now() + Duration::minutes(5);
  cluster_.sim().schedule_at(
      late_at, [this] { cluster_.api().submit(short_pod("late")); });
  ASSERT_TRUE(cluster_.run_until_quiescent(2, Duration::hours(1)));
  EXPECT_EQ(phase("first"), cluster::PodPhase::kSucceeded);
  EXPECT_EQ(phase("late"), cluster::PodPhase::kSucceeded);
  EXPECT_GT(cluster_.sim().now(), late_at);
}

TEST_F(Quiescence, MissingPodsRunToTheDeadline) {
  cluster_.api().submit(short_pod("only"));
  const TimePoint limit = cluster_.sim().now() + Duration::minutes(10);
  EXPECT_FALSE(cluster_.run_until_quiescent(2, Duration::minutes(10)));
  EXPECT_EQ(cluster_.sim().now(), limit);
  EXPECT_EQ(phase("only"), cluster::PodPhase::kSucceeded);
}

TEST_F(Quiescence, LeavesNoWatchBehind) {
  const std::size_t watches = cluster_.api().watch_count();
  cluster_.api().submit(short_pod("p1"));
  ASSERT_TRUE(cluster_.run_until_quiescent(1, Duration::minutes(10)));
  EXPECT_EQ(cluster_.api().watch_count(), watches);
  EXPECT_FALSE(cluster_.run_until_quiescent(2, Duration::minutes(1)));
  EXPECT_EQ(cluster_.api().watch_count(), watches);
}

ReplayOptions fast_options() {
  ReplayOptions options;
  options.trace_config.slice_jobs = 60;
  options.trace_config.over_allocating_jobs = 4;
  options.trace_config.slice_end =
      options.trace_config.slice_start + Duration::seconds(600);
  return options;
}

TEST(Replay, CompletesAndAccountsAllJobs) {
  const ReplayResult result = run_replay(fast_options());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.jobs.size(), 60u);
  EXPECT_GT(result.makespan, Duration{});
  EXPECT_GT(result.total_trace_duration, Duration{});
  // Every non-failed job has waiting and turnaround metrics.
  for (const JobOutcome& job : result.jobs) {
    if (!job.failed) {
      EXPECT_TRUE(job.waiting.has_value());
      EXPECT_TRUE(job.turnaround.has_value());
      EXPECT_GE(*job.turnaround, job.trace_duration);
    }
  }
}

TEST(Replay, EnforcementKillsOverAllocatingSgxJobs) {
  ReplayOptions options = fast_options();
  options.sgx_fraction = 1.0;
  options.enforce_limits = true;
  const ReplayResult result = run_replay(options);
  // All 4 over-allocators are SGX jobs now and must be killed at launch.
  EXPECT_EQ(result.failed_jobs, 4u);
  for (const JobOutcome& job : result.jobs) {
    if (job.failed) {
      EXPECT_EQ(job.failure_reason, "EpcLimitExceeded");
      EXPECT_GT(job.actual, job.requested);
    }
  }
}

TEST(Replay, StockDriverRunsOverAllocatorsToCompletion) {
  ReplayOptions options = fast_options();
  options.sgx_fraction = 1.0;
  options.enforce_limits = false;
  const ReplayResult result = run_replay(options);
  EXPECT_EQ(result.failed_jobs, 0u);
}

TEST(Replay, ZeroSgxFractionNeverFails) {
  ReplayOptions options = fast_options();
  options.sgx_fraction = 0.0;
  const ReplayResult result = run_replay(options);
  EXPECT_EQ(result.failed_jobs, 0u);
  for (const JobOutcome& job : result.jobs) {
    EXPECT_FALSE(job.sgx);
  }
}

TEST(Replay, PendingSeriesSampled) {
  const ReplayResult result = run_replay(fast_options());
  EXPECT_GT(result.pending_series.size(), 5u);
  for (std::size_t i = 1; i < result.pending_series.size(); ++i) {
    EXPECT_GT(result.pending_series[i].at, result.pending_series[i - 1].at);
  }
}

TEST(Replay, SmallEpcIncreasesMakespan) {
  ReplayOptions base = fast_options();
  base.sgx_fraction = 1.0;
  const ReplayResult normal = run_replay(base);

  ReplayOptions tiny = base;
  tiny.epc_usable_override = mib(23.4);  // "32 MiB" geometry of Fig. 7
  const ReplayResult constrained = run_replay(tiny);

  EXPECT_TRUE(constrained.completed);
  EXPECT_GT(constrained.makespan, normal.makespan);
  EXPECT_GT(constrained.capped_jobs, 0u);
}

TEST(Replay, MaliciousSquattersHarmHonestJobs) {
  ReplayOptions honest_only = fast_options();
  honest_only.sgx_fraction = 1.0;
  honest_only.enforce_limits = false;
  honest_only.deadline = Duration::hours(2);
  const ReplayResult baseline = run_replay(honest_only);
  EXPECT_TRUE(baseline.completed);

  ReplayOptions with_squatters = honest_only;
  with_squatters.malicious_per_sgx_node = 1;
  with_squatters.malicious_epc_fraction = 0.5;
  const ReplayResult attacked = run_replay(with_squatters);

  // With half of every EPC squatted, honest jobs are visibly harmed:
  // either some can no longer be placed at all within the deadline, or
  // those that run wait longer on average.
  const auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  };
  const bool jobs_starved =
      attacked.waiting_seconds().size() < baseline.waiting_seconds().size();
  const bool waits_grew =
      mean(attacked.waiting_seconds()) > mean(baseline.waiting_seconds());
  EXPECT_TRUE(jobs_starved || waits_grew);
  EXPECT_FALSE(attacked.completed);  // squatters outlive the deadline
}

TEST(Replay, CompletesWithSquattersStillRunning) {
  // Squatters that use little EPC leave room for every trace job, and with
  // the stock driver they squat for the whole deadline: the replay is
  // complete once the trace pods are, not when the squatters end.
  ReplayOptions options = fast_options();
  options.sgx_fraction = 1.0;
  options.enforce_limits = false;
  options.deadline = Duration::hours(2);
  options.malicious_per_sgx_node = 1;
  options.malicious_epc_fraction = 0.02;
  const ReplayResult result = run_replay(options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.jobs.size(), 60u);  // squatters are not trace jobs
  EXPECT_EQ(result.failed_jobs, 0u);
  EXPECT_EQ(result.waiting_seconds().size(), 60u);
  // Pinned to the value of the scan-based completion loop: the replay
  // stops at the same 30 s check it always did.
  EXPECT_EQ(result.makespan.micros_count(), 726'979'933);
}

TEST(Replay, EnforcementAnnihilatesSquatters) {
  ReplayOptions attacked = fast_options();
  attacked.sgx_fraction = 1.0;
  attacked.enforce_limits = true;
  attacked.malicious_per_sgx_node = 1;
  const ReplayResult result = run_replay(attacked);
  EXPECT_TRUE(result.completed);
  // Squatters die at launch; only the 4 over-allocating trace jobs fail.
  EXPECT_EQ(result.failed_jobs, 4u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const ReplayResult a = run_replay(fast_options());
  const ReplayResult b = run_replay(fast_options());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].pod, b.jobs[i].pod);
    EXPECT_EQ(a.jobs[i].waiting, b.jobs[i].waiting);
    EXPECT_EQ(a.jobs[i].turnaround, b.jobs[i].turnaround);
  }
}

TEST(Replay, ResultHelpersFilterByKind) {
  ReplayOptions options = fast_options();
  options.sgx_fraction = 0.5;
  const ReplayResult result = run_replay(options);
  const auto all = result.waiting_seconds();
  const auto sgx = result.waiting_seconds(true);
  const auto standard = result.waiting_seconds(false);
  EXPECT_EQ(all.size(), sgx.size() + standard.size());
  EXPECT_EQ(result.total_turnaround(),
            result.total_turnaround(true) + result.total_turnaround(false));
}

}  // namespace
}  // namespace sgxo::exp
