// Property test for the scheduling cycle's infeasible-shape pruning.
//
// Scheduler::run_once skips fits() for a pod whose request dominates a
// shape that already fit no view earlier in the same cycle (same SGX flag
// and node selector). That is only sound if it never changes a decision.
// This suite holds its own brute-force reference cycle — FCFS, fits() on
// every view for every pod — and runs it against run_once on two
// identical clusters, cycle after cycle: the bind sequence (pod and node,
// in order) and the pod handed to on_unschedulable must agree exactly.
//
// Random small clusters mix SGX and standard nodes; random queues mix
// SGX and standard pods from a small request palette (so shapes repeat
// and dominate each other), node selectors (some naming no node),
// priorities, and pods the placement policy declines. Strict FCFS is
// covered on and off, and a preempting on_unschedulable hook evicts
// mid-cycle.
//
// The same harness checks that views are built lazily: collect_views runs
// exactly once in a cycle where some pod reaches the feasibility check
// and never otherwise — neither on an empty queue (each seed starts with
// one) nor when every pending pod is still backing off (the backoff suite
// follows each cycle with an immediate second one, in which the pods that
// just failed are all backing off).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/image_registry.hpp"
#include "cluster/kubelet.hpp"
#include "cluster/node.hpp"
#include "common/rng.hpp"
#include "orch/api_server.hpp"
#include "orch/default_scheduler.hpp"
#include "orch/scheduler_framework.hpp"
#include "sgx/perf_model.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

constexpr const char* kScheduler = "probe";

/// Priority of pods the test policy declines although they fit somewhere:
/// select_node returning nullopt must not count as infeasibility.
constexpr int kDeclined = -1;

/// The placement policy shared by the scheduler under test and the
/// reference: most free memory first, ties by name; declines kDeclined.
std::optional<cluster::NodeName> choose(const PodRecord& pod,
                                        const std::vector<NodeView>& feasible) {
  if (pod.spec.priority == kDeclined) return std::nullopt;
  const auto best = std::min_element(
      feasible.begin(), feasible.end(),
      [](const NodeView& a, const NodeView& b) {
        if (a.memory_free() != b.memory_free()) {
          return a.memory_free() > b.memory_free();
        }
        return a.name < b.name;
      });
  return best->name;
}

/// The preemption hook shared by both: evicts the first strictly
/// lower-priority pod (node-name, then pod-name order) on a node the pod
/// could use. Runs mid-cycle, so later pods of the cycle meet a store
/// that changed under the cycle's views.
void preempt_one(ApiServer& api, const PodRecord& pod) {
  for (const ApiServer::NodeEntry& entry : api.schedulable_nodes()) {
    if (pod.wants_sgx && !entry.node->has_sgx()) continue;
    PodFilter on_node;
    on_node.node = entry.node->name();
    for (const PodRecord* victim : api.list_pods(on_node)) {
      if (victim->spec.priority < pod.spec.priority) {
        api.evict(victim->spec.name, "Preempted by " + pod.spec.name);
        return;
      }
    }
  }
}

class ProbeScheduler final : public Scheduler {
 public:
  ProbeScheduler(sim::Simulation& sim, ApiServer& api, bool preempt)
      : Scheduler(sim, api, kScheduler), preempt_(preempt) {}

  /// The pod on_unschedulable received since the harness last cleared it.
  std::optional<cluster::PodName> unschedulable;
  /// collect_views calls so far.
  std::size_t view_builds = 0;

 protected:
  std::vector<NodeView> collect_views() override {
    ++view_builds;
    return request_based_views(api());
  }
  std::optional<cluster::NodeName> select_node(
      const PodRecord& pod, const std::vector<NodeView>& feasible,
      const std::vector<NodeView>& all) override {
    (void)all;
    return choose(pod, feasible);
  }
  void on_unschedulable(const PodRecord& pod,
                        const std::vector<NodeView>& all) override {
    (void)all;
    unschedulable = pod.spec.name;
    if (preempt_) preempt_one(api(), pod);
  }

 private:
  bool preempt_;
};

/// What one reference cycle decided besides its binds.
struct ReferenceOutcome {
  /// The pod handed to the unschedulable hook.
  std::optional<cluster::PodName> unschedulable;
  /// Some pod got past the backoff skip to the feasibility check.
  bool reached_fits = false;
};

/// The brute-force reference: run_once's loop with no pruning — fits() on
/// every view for every pod, in the same FCFS order, with the same
/// cycle-local reservation after each bind. `prunable` counts infeasible
/// pods whose request dominates an earlier infeasible pod of the same
/// class — the pods run_once decides without fits(), so the comparison is
/// not vacuous. With `backing_off` set, the pods in it are skipped, and a
/// failed placement adds its pod to it (a bind removes it): the scheduler
/// under test backs off for longer than the test runs.
ReferenceOutcome reference_cycle(ApiServer& api, bool strict, bool preempt,
                                 std::set<cluster::PodName>* backing_off,
                                 std::size_t& prunable) {
  std::vector<NodeView> views = request_based_views(api);
  PodFilter pending;
  pending.phase = cluster::PodPhase::kPending;
  pending.scheduler = kScheduler;
  std::vector<std::pair<const PodRecord*, std::uint64_t>> snapshot;
  for (const PodRecord* record : api.list_pods(pending)) {
    snapshot.emplace_back(record, record->resource_version);
  }
  const auto back_off = [&](const PodRecord* record) {
    if (backing_off != nullptr) backing_off->insert(record->spec.name);
  };
  ReferenceOutcome outcome_of_cycle;
  std::optional<cluster::PodName>& unschedulable =
      outcome_of_cycle.unschedulable;
  std::vector<const PodRecord*> infeasible;
  for (const auto& [record, version] : snapshot) {
    if (backing_off != nullptr && backing_off->count(record->spec.name)) {
      continue;
    }
    outcome_of_cycle.reached_fits = true;
    std::vector<NodeView> feasible;
    for (const NodeView& view : views) {
      if (fits(*record, view)) feasible.push_back(view);
    }
    if (feasible.empty()) {
      const PodRecord& pod = *record;
      if (std::any_of(infeasible.begin(), infeasible.end(),
                      [&](const PodRecord* earlier) {
                        return earlier->wants_sgx == pod.wants_sgx &&
                               earlier->spec.node_selector ==
                                   pod.spec.node_selector &&
                               earlier->requests.memory <=
                                   pod.requests.memory &&
                               earlier->requests.epc_pages <=
                                   pod.requests.epc_pages;
                      })) {
        ++prunable;
      }
      infeasible.push_back(record);
      if (!unschedulable.has_value()) {
        unschedulable = record->spec.name;
        if (preempt) preempt_one(api, *record);
      }
      back_off(record);
      if (strict) break;
      continue;
    }
    const std::optional<cluster::NodeName> chosen = choose(*record, feasible);
    if (!chosen.has_value()) {
      back_off(record);
      if (strict) break;
      continue;
    }
    const ApiServer::BindOutcome outcome =
        api.try_bind(record->spec.name, *chosen, version);
    if (outcome == ApiServer::BindStatus::kStaleVersion ||
        outcome == ApiServer::BindStatus::kNotPending) {
      continue;
    }
    if (!outcome.bound()) {
      back_off(record);
      if (strict) break;
      continue;
    }
    if (backing_off != nullptr) backing_off->erase(record->spec.name);
    for (NodeView& view : views) {
      if (view.name != *chosen) continue;
      view.memory_used += record->requests.memory;
      view.epc_used += record->requests.epc_pages;
      view.epc_requested += record->requests.epc_pages;
    }
  }
  return outcome_of_cycle;
}

struct ClusterShape {
  struct NodeShape {
    std::string name;
    Bytes memory;
    std::optional<Bytes> epc_usable;
  };
  std::vector<NodeShape> nodes;
};

ClusterShape random_shape(Rng& rng) {
  ClusterShape shape;
  const auto count = rng.uniform_int(2, 5);
  static const Bytes kMemory[] = {8_GiB, 16_GiB, 32_GiB};
  static const Bytes kEpc[] = {32_MiB, 64_MiB, 93_MiB};
  for (std::int64_t i = 0; i < count; ++i) {
    ClusterShape::NodeShape node;
    node.name = "n" + std::to_string(i);
    node.memory = kMemory[rng.uniform_int(0, 2)];
    if (rng.bernoulli(0.5)) node.epc_usable = kEpc[rng.uniform_int(0, 2)];
    shape.nodes.push_back(node);
  }
  return shape;
}

/// One cluster: simulation, API server and a kubelet per node.
struct Cluster {
  explicit Cluster(const ClusterShape& shape) : api(sim) {
    for (const ClusterShape::NodeShape& node_shape : shape.nodes) {
      cluster::MachineSpec machine;
      machine.name = node_shape.name;
      machine.cpu_cores = 4;
      machine.memory = node_shape.memory;
      if (node_shape.epc_usable.has_value()) {
        machine.epc = sgx::EpcConfig::with_usable(*node_shape.epc_usable);
      }
      nodes.push_back(std::make_unique<cluster::Node>(machine));
      kubelets.push_back(std::make_unique<cluster::Kubelet>(
          sim, *nodes.back(), perf, registry, api));
      api.register_node(*nodes.back(), *kubelets.back());
    }
    api.watch_pods([this](const ApiServer::PodUpdate& update) {
      if (update.phase == cluster::PodPhase::kBound) {
        binds.emplace_back(update.pod, api.pod(update.pod).node);
      }
    });
  }

  sim::Simulation sim;
  ApiServer api;
  sgx::PerfModel perf;
  cluster::ImageRegistry registry;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<std::unique_ptr<cluster::Kubelet>> kubelets;
  std::vector<std::pair<cluster::PodName, cluster::NodeName>> binds;
};

cluster::PodSpec random_pod(Rng& rng, const std::string& name,
                            const ClusterShape& shape) {
  static const Bytes kMemory[] = {1_GiB, 2_GiB, 4_GiB, 8_GiB, 12_GiB};
  static const std::uint64_t kPages[] = {1'000, 4'000, 8'000, 12'000,
                                         20'000};
  static const int kPriorities[] = {kDeclined, 0, 0, 0, 1, 2};
  cluster::PodBehavior behavior;
  behavior.duration = Duration::seconds(rng.uniform_int(5, 120));
  cluster::ResourceAmounts request;
  if (rng.bernoulli(0.5)) {
    behavior.sgx = true;
    request.epc_pages = Pages{kPages[rng.uniform_int(0, 4)]};
    request.memory = kMemory[rng.uniform_int(0, 1)];
  } else {
    request.memory = kMemory[rng.uniform_int(0, 4)];
  }
  behavior.actual_usage =
      behavior.sgx ? request.epc_pages.as_bytes() : request.memory;
  cluster::PodSpec pod = cluster::make_stressor_pod(name, request, request,
                                                    behavior, kScheduler);
  pod.priority = kPriorities[rng.uniform_int(0, 5)];
  if (rng.bernoulli(0.15)) {
    // Mostly a real node; sometimes a name no node carries.
    const auto node = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(shape.nodes.size()) - 1));
    pod.node_selector =
        rng.bernoulli(0.8) ? shape.nodes[node].name : std::string("nowhere");
  }
  return pod;
}

struct Mode {
  bool strict;
  bool preempt;
};

/// Cycles that built no views, by why not.
struct IdleCycles {
  std::size_t empty_queue = 0;
  std::size_t all_backing_off = 0;
};

/// Drives run_once and the reference over identical clusters for several
/// cycles, submitting a random batch before each and letting virtual time
/// pass after it (pods start, finish and free capacity). The first cycle
/// of each seed runs on an empty queue.
void check_seed(std::uint64_t seed, Mode mode, bool backoff,
                std::size_t& prunable, IdleCycles& idle) {
  Rng rng{seed};
  const ClusterShape shape = random_shape(rng);
  Cluster under_test{shape};
  Cluster reference{shape};
  ProbeScheduler scheduler{under_test.sim, under_test.api, mode.preempt};
  scheduler.set_strict_fcfs(mode.strict);
  // Longer than the test's virtual time: a pod that failed placement
  // backs off until the end.
  if (backoff) {
    scheduler.set_bind_backoff(Duration::seconds(3600),
                               Duration::seconds(7200));
  }
  std::set<cluster::PodName> backing_off;

  const std::string seed_context =
      "seed=" + std::to_string(seed) + " strict=" +
      std::to_string(mode.strict) + " preempt=" +
      std::to_string(mode.preempt) + " backoff=" + std::to_string(backoff);
  // One cycle of each, compared: binds, the unschedulable hook's pod and
  // whether views were built.
  const auto compare_cycle = [&](const std::string& context) {
    PodFilter pending;
    pending.phase = cluster::PodPhase::kPending;
    pending.scheduler = kScheduler;
    const bool queue_empty = under_test.api.list_pods(pending).empty();
    scheduler.unschedulable.reset();
    const std::size_t builds_before = scheduler.view_builds;
    scheduler.run_once();
    const ReferenceOutcome want =
        reference_cycle(reference.api, mode.strict, mode.preempt,
                        backoff ? &backing_off : nullptr, prunable);
    ASSERT_EQ(under_test.binds, reference.binds) << context;
    ASSERT_EQ(scheduler.unschedulable, want.unschedulable) << context;
    ASSERT_EQ(scheduler.view_builds - builds_before,
              want.reached_fits ? 1u : 0u)
        << context;
    if (!want.reached_fits) {
      ++(queue_empty ? idle.empty_queue : idle.all_backing_off);
    }
  };

  compare_cycle(seed_context + " cycle=empty");
  if (::testing::Test::HasFatalFailure()) return;
  int next_pod = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    const auto batch = rng.uniform_int(0, 25);
    for (std::int64_t i = 0; i < batch; ++i) {
      const cluster::PodSpec pod =
          random_pod(rng, "p" + std::to_string(next_pod++), shape);
      under_test.api.submit(pod);
      reference.api.submit(pod);
    }
    const std::string context = seed_context + " cycle=" +
                                std::to_string(cycle);
    compare_cycle(context);
    if (::testing::Test::HasFatalFailure()) return;
    if (backoff) {
      // At once again: the pods that just failed are all backing off.
      compare_cycle(context + " again");
      if (::testing::Test::HasFatalFailure()) return;
    }

    const TimePoint until =
        under_test.sim.now() + Duration::seconds(rng.uniform_int(1, 60));
    under_test.sim.run_until(until);
    reference.sim.run_until(until);
  }
}

/// Runs check_seed over 150 seeds and checks the harness exercised what
/// it claims to: pruning (outside strict FCFS), an empty queue per seed,
/// and — with backoff — cycles whose pending pods were all backing off
/// (fewer under strict FCFS, which leaves the pods behind its first
/// failure untried).
void check_mode(Mode mode, bool backoff) {
  std::size_t prunable = 0;
  IdleCycles idle;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    check_seed(seed, mode, backoff, prunable, idle);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Strict FCFS stops at the first infeasible pod, so nothing is ever
  // pruned there; the skipping modes must exercise pruning heavily.
  if (!mode.strict) {
    EXPECT_GT(prunable, 100u);
  }
  EXPECT_GE(idle.empty_queue, 150u);
  if (backoff) {
    EXPECT_GT(idle.all_backing_off, mode.strict ? 10u : 100u);
  }
}

std::string mode_name(const ::testing::TestParamInfo<Mode>& info) {
  return std::string(info.param.strict ? "Strict" : "Skipping") +
         (info.param.preempt ? "Preempting" : "");
}

class CyclePruningProperty : public ::testing::TestWithParam<Mode> {};

TEST_P(CyclePruningProperty, RunOnceMatchesBruteForceReference) {
  check_mode(GetParam(), /*backoff=*/false);
}

INSTANTIATE_TEST_SUITE_P(Modes, CyclePruningProperty,
                         ::testing::Values(Mode{false, false},
                                           Mode{true, false},
                                           Mode{false, true},
                                           Mode{true, true}),
                         mode_name);

/// The same comparison with a bind backoff longer than the test, and an
/// immediate second cycle after each one.
class CyclePruningBackoffProperty : public ::testing::TestWithParam<Mode> {};

TEST_P(CyclePruningBackoffProperty, RunOnceMatchesBruteForceReference) {
  check_mode(GetParam(), /*backoff=*/true);
}

INSTANTIATE_TEST_SUITE_P(Modes, CyclePruningBackoffProperty,
                         ::testing::Values(Mode{false, false},
                                           Mode{true, true}),
                         mode_name);

}  // namespace
}  // namespace sgxo::orch
