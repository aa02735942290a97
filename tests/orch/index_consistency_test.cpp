// Property test for the ApiServer's secondary indexes.
//
// Pending-queue and per-node list_pods reads and namespace_usage are
// served from maintained indexes (pending queues, pods-by-node,
// per-namespace accumulators). This suite drives randomized submit / bind / evict /
// fail-node / recover / advance-time sequences and after every step
// cross-checks each indexed answer against a reference computed by a full
// scan of the pod store — the index must agree with the scan at all times,
// including ordering. Shard-filtered pending pulls (the shared-state fleet's
// read) are checked against the same reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "orch/api_server.hpp"
#include "pod_names.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name, bool sgx, bool master) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  if (sgx) spec.epc = sgx::EpcConfig::sgx1();
  spec.is_master = master;
  return spec;
}

constexpr const char* kSchedulers[] = {"", "sched-a", "sched-b"};
constexpr const char* kNamespaces[] = {"default", "team-a", "team-b"};

class IndexConsistencyFixture : public ::testing::Test {
 protected:
  IndexConsistencyFixture()
      : api_(sim_),
        node_a_(machine("node-a", false, false)),
        node_b_(machine("node-b", true, false)),
        node_c_(machine("node-c", true, false)),
        kubelet_a_(sim_, node_a_, perf_, registry_, api_),
        kubelet_b_(sim_, node_b_, perf_, registry_, api_),
        kubelet_c_(sim_, node_c_, perf_, registry_, api_) {
    api_.register_node(node_a_, kubelet_a_);
    api_.register_node(node_b_, kubelet_b_);
    api_.register_node(node_c_, kubelet_c_);
  }

  cluster::PodSpec make_pod(Rng& rng) {
    cluster::PodBehavior behavior;
    behavior.actual_usage = 1_GiB;
    behavior.duration = Duration::seconds(rng.uniform_int(5, 120));
    cluster::PodSpec spec = cluster::make_stressor_pod(
        "pod-" + std::to_string(next_pod_++), {1_GiB, Pages{0}},
        {1_GiB, Pages{0}}, behavior,
        kSchedulers[rng.uniform_int(0, 2)]);
    spec.namespace_name = kNamespaces[rng.uniform_int(0, 2)];
    spec.priority = static_cast<int>(rng.uniform_int(0, 3));
    return spec;
  }

  cluster::PodSpec make_pod_named(const std::string& name,
                                  const std::string& scheduler,
                                  int priority = 0) {
    cluster::PodBehavior behavior;
    behavior.actual_usage = 1_GiB;
    behavior.duration = Duration::minutes(10);
    cluster::PodSpec spec = cluster::make_stressor_pod(
        name, {1_GiB, Pages{0}}, {1_GiB, Pages{0}}, behavior, scheduler);
    spec.priority = priority;
    return spec;
  }

  // ---- reference answers: full scans over the unindexed pod store ---------
  [[nodiscard]] std::vector<cluster::PodName> reference_pending(
      const std::string& scheduler) const {
    // The pre-index algorithm: submission-order scan, then a stable sort
    // by priority (descending).
    std::vector<cluster::PodName> out;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->phase != cluster::PodPhase::kPending) continue;
      const std::string& owner = record->spec.scheduler_name.empty()
                                     ? api_.default_scheduler()
                                     : record->spec.scheduler_name;
      if (owner == scheduler) out.push_back(record->spec.name);
    }
    std::stable_sort(out.begin(), out.end(),
                     [this](const cluster::PodName& a,
                            const cluster::PodName& b) {
                       return api_.pod(a).spec.priority >
                              api_.pod(b).spec.priority;
                     });
    return out;
  }

  [[nodiscard]] std::vector<cluster::PodName> reference_assigned(
      const cluster::NodeName& node) const {
    std::vector<cluster::PodName> out;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->node != node) continue;
      if (record->phase == cluster::PodPhase::kBound ||
          record->phase == cluster::PodPhase::kRunning) {
        out.push_back(record->spec.name);
      }
    }
    std::sort(out.begin(), out.end());  // the node index is pod-name ordered
    return out;
  }

  [[nodiscard]] cluster::ResourceAmounts reference_usage(
      const std::string& namespace_name) const {
    cluster::ResourceAmounts usage;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->spec.namespace_name != namespace_name) continue;
      if (record->phase == cluster::PodPhase::kSucceeded ||
          record->phase == cluster::PodPhase::kFailed) {
        continue;
      }
      usage = usage + record->spec.total_requests();
    }
    return usage;
  }

  void check_invariants() {
    for (const char* scheduler : {"default-scheduler", "sched-a", "sched-b",
                                  "ghost"}) {
      const std::vector<cluster::PodName> reference =
          reference_pending(scheduler);
      EXPECT_EQ(pending_names(api_, scheduler), reference)
          << "scheduler " << scheduler;
      // Shard pulls stream the same merge: every shard is the reference
      // queue filtered by shard_of, in order, and together the shards
      // partition the queue.
      for (const std::uint32_t shard_count : {2u, 3u}) {
        std::size_t covered = 0;
        for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
          PodFilter pull;
          pull.phase = cluster::PodPhase::kPending;
          pull.scheduler = scheduler;
          pull.shard = shard;
          pull.shard_count = shard_count;
          std::vector<cluster::PodName> expected;
          std::copy_if(reference.begin(), reference.end(),
                       std::back_inserter(expected),
                       [&](const cluster::PodName& name) {
                         return shard_of(name, shard_count) == shard;
                       });
          const std::vector<cluster::PodName> actual = names_of(api_, pull);
          EXPECT_EQ(actual, expected) << "scheduler " << scheduler << " shard "
                                      << shard << "/" << shard_count;
          covered += actual.size();
        }
        EXPECT_EQ(covered, reference.size())
            << "scheduler " << scheduler << " shards " << shard_count;
      }
    }
    for (const char* node : {"node-a", "node-b", "node-c", "ghost"}) {
      EXPECT_EQ(assigned_names(api_, node), reference_assigned(node))
          << "node " << node;
    }
    for (const char* ns : kNamespaces) {
      const cluster::ResourceAmounts expected = reference_usage(ns);
      const cluster::ResourceAmounts actual = api_.namespace_usage(ns);
      EXPECT_EQ(expected.memory, actual.memory) << "namespace " << ns;
      EXPECT_EQ(expected.epc_pages, actual.epc_pages) << "namespace " << ns;
    }
    // Combined filters fall out of the same machinery: phase+node and
    // namespace filters must agree with a hand filter of the full scan.
    PodFilter running_b;
    running_b.phase = cluster::PodPhase::kRunning;
    running_b.node = "node-b";
    std::vector<cluster::PodName> expected_running;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->phase == cluster::PodPhase::kRunning &&
          record->node == "node-b") {
        expected_running.push_back(record->spec.name);
      }
    }
    std::sort(expected_running.begin(), expected_running.end());
    std::vector<cluster::PodName> actual_running;
    for (const PodRecord* record : api_.list_pods(running_b)) {
      actual_running.push_back(record->spec.name);
    }
    EXPECT_EQ(expected_running, actual_running);
  }

  [[nodiscard]] std::vector<cluster::PodName> pods_in_phase(
      cluster::PodPhase phase) const {
    std::vector<cluster::PodName> out;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->phase == phase) out.push_back(record->spec.name);
    }
    return out;
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node node_a_;
  cluster::Node node_b_;
  cluster::Node node_c_;
  cluster::Kubelet kubelet_a_;
  cluster::Kubelet kubelet_b_;
  cluster::Kubelet kubelet_c_;
  int next_pod_ = 0;
};

TEST_F(IndexConsistencyFixture, RandomizedLifecycleAgreesWithFullScan) {
  Rng rng{20260805};
  const std::vector<std::pair<cluster::Node*, cluster::NodeName>> nodes = {
      {&node_a_, "node-a"}, {&node_b_, "node-b"}, {&node_c_, "node-c"}};

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.35) {
      api_.submit(make_pod(rng));
    } else if (roll < 0.55) {
      // Bind the head of a random scheduler's queue to a random ready node.
      const auto pending = pending_names(
          api_, rng.bernoulli(0.5) ? api_.default_scheduler()
                                   : kSchedulers[rng.uniform_int(1, 2)]);
      const auto& [node, name] = nodes[rng.uniform_int(0, 2)];
      if (!pending.empty() && node->schedulable()) {
        const cluster::PodName target = pending.front();
        ASSERT_TRUE(api_.try_bind(target, name,
                                  api_.pod(target).resource_version)
                        .bound());
      }
    } else if (roll < 0.65) {
      const auto assigned =
          assigned_names(api_, nodes[rng.uniform_int(0, 2)].second);
      if (!assigned.empty()) {
        api_.evict(assigned[rng.uniform_int(
                       0, static_cast<std::int64_t>(assigned.size()) - 1)],
                   "chaos");
      }
    } else if (roll < 0.72) {
      const auto& [node, name] = nodes[rng.uniform_int(0, 2)];
      if (node->ready()) {
        api_.fail_node(name);
      } else {
        api_.recover_node(name);
      }
    } else if (roll < 0.78) {
      // on_pod_failed carries no phase precondition: re-reporting failure
      // on an already-terminal pod must not double-release the usage
      // accumulator, and must leave the first termination's record as it
      // was (the terminal guard).
      for (const cluster::PodPhase phase :
           {cluster::PodPhase::kFailed, cluster::PodPhase::kSucceeded}) {
        const auto terminal = pods_in_phase(phase);
        if (terminal.empty()) continue;
        const PodRecord before = api_.pod(terminal.front());
        const std::size_t events = api_.events().size();
        api_.on_pod_failed(terminal.front(), "RepeatedReport");
        const PodRecord& after = api_.pod(terminal.front());
        EXPECT_EQ(after.phase, before.phase);
        EXPECT_EQ(after.finished, before.finished);
        EXPECT_EQ(after.failure_reason, before.failure_reason);
        EXPECT_EQ(after.resource_version, before.resource_version);
        EXPECT_EQ(api_.events().size(), events);
      }
    } else {
      // Let the cluster make progress: pods start, run and complete.
      sim_.run_until(sim_.now() +
                     Duration::seconds(rng.uniform_int(1, 30)));
    }
    check_invariants();
  }

  // The run must have actually exercised the interesting transitions.
  EXPECT_GT(api_.pod_count(), 50u);
  EXPECT_FALSE(pods_in_phase(cluster::PodPhase::kSucceeded).empty());
  EXPECT_FALSE(pods_in_phase(cluster::PodPhase::kFailed).empty());
}

TEST_F(IndexConsistencyFixture, DefaultSchedulerChangeReroutesUnnamedPods) {
  // The pending index buckets by *declared* scheduler name, so flipping
  // the cluster default after submission must re-route unnamed pods
  // without any index rebuild.
  api_.submit(make_pod_named("u1", ""));
  api_.submit(make_pod_named("n1", "sched-a"));
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"u1"}));

  api_.set_default_scheduler("sched-a");
  EXPECT_EQ(pending_names(api_, "sched-a"),
            (std::vector<cluster::PodName>{"u1", "n1"}));
  EXPECT_TRUE(pending_names(api_, "default-scheduler").empty());
  EXPECT_EQ(pending_names(api_, "sched-a"), reference_pending("sched-a"));
}

TEST_F(IndexConsistencyFixture, PriorityOrderSurvivesEvictionRequeue) {
  api_.submit(make_pod_named("low-1", "", 0));
  api_.submit(make_pod_named("high", "", 5));
  api_.submit(make_pod_named("low-2", "", 0));
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"high", "low-1", "low-2"}));

  // An evicted pod re-enters the queue at its original submission
  // position (the legacy submission-order-scan behavior).
  ASSERT_TRUE(api_.try_bind("high", "node-a",
                            api_.pod("high").resource_version)
                  .bound());
  api_.evict("high", "test");
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"high", "low-1", "low-2"}));
  ASSERT_TRUE(api_.try_bind("low-1", "node-a",
                            api_.pod("low-1").resource_version)
                  .bound());
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"high", "low-2"}));
}

}  // namespace
}  // namespace sgxo::orch
