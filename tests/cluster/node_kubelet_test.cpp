#include <gtest/gtest.h>

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "cluster/kubelet.hpp"
#include "cluster/node.hpp"
#include "sim/simulation.hpp"

namespace sgxo::cluster {
namespace {

using namespace sgxo::literals;

MachineSpec sgx_machine() {
  MachineSpec spec;
  spec.name = "sgx-1";
  spec.cpu_model = "i7-6700";
  spec.cpu_cores = 4;
  spec.memory = 8_GiB;
  spec.epc = sgx::EpcConfig::sgx1();
  return spec;
}

MachineSpec standard_machine() {
  MachineSpec spec;
  spec.name = "node-1";
  spec.cpu_model = "Xeon";
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  return spec;
}

TEST(Node, SgxMachineGetsDriverAndPlugin) {
  Node node{sgx_machine()};
  EXPECT_TRUE(node.has_sgx());
  ASSERT_NE(node.driver(), nullptr);
  EXPECT_EQ(node.epc_capacity().count(), 23'936u);
  EXPECT_TRUE(node.schedulable());
}

TEST(Node, StandardMachineHasNoDriver) {
  Node node{standard_machine()};
  EXPECT_FALSE(node.has_sgx());
  EXPECT_EQ(node.driver(), nullptr);
  EXPECT_EQ(node.epc_capacity().count(), 0u);
}

TEST(Node, MasterNotSchedulable) {
  MachineSpec spec = standard_machine();
  spec.is_master = true;
  Node node{spec};
  EXPECT_FALSE(node.schedulable());
}

TEST(Node, MemoryUsedTracksContainers) {
  Node node{standard_machine()};
  ContainerSpec cspec;
  cspec.name = "c";
  cspec.image = "img";
  const ContainerId id = node.runtime().run("pod-a", cspec, {});
  node.runtime().set_memory_usage(id, 4_GiB);
  EXPECT_EQ(node.memory_used(), 4_GiB);
  node.runtime().kill(id);
  EXPECT_EQ(node.memory_used(), 0_B);
}

/// Records lifecycle callbacks with their virtual timestamps.
class RecordingListener final : public PodLifecycleListener {
 public:
  explicit RecordingListener(sim::Simulation& sim) : sim_(&sim) {}

  void on_pod_running(const PodName& pod) override {
    running[pod] = sim_->now();
  }
  void on_pod_succeeded(const PodName& pod) override {
    succeeded[pod] = sim_->now();
  }
  void on_pod_failed(const PodName& pod, const std::string& reason) override {
    failed[pod] = reason;
  }

  std::map<PodName, TimePoint> running;
  std::map<PodName, TimePoint> succeeded;
  std::map<PodName, std::string> failed;

 private:
  sim::Simulation* sim_;
};

class KubeletFixture : public ::testing::Test {
 protected:
  KubeletFixture()
      : node_(sgx_machine(), /*enforce_epc_limits=*/true),
        listener_(sim_),
        kubelet_(sim_, node_, perf_, registry_, listener_) {
    registry_.publish("sebvaucher/sgx-base:stress-sgx", 125_MiB);
  }

  PodSpec sgx_pod(const std::string& name, Pages request, Bytes actual,
                  Duration duration) {
    PodBehavior behavior;
    behavior.sgx = true;
    behavior.actual_usage = actual;
    behavior.duration = duration;
    return make_stressor_pod(name, {0_B, request}, {0_B, request}, behavior);
  }

  PodSpec standard_pod(const std::string& name, Bytes request, Bytes actual,
                       Duration duration) {
    PodBehavior behavior;
    behavior.actual_usage = actual;
    behavior.duration = duration;
    return make_stressor_pod(name, {request, Pages{0}}, {request, Pages{0}},
                             behavior);
  }

  sim::Simulation sim_;
  sgx::PerfModel perf_;
  ImageRegistry registry_{125e6};
  Node node_;
  RecordingListener listener_;
  Kubelet kubelet_;
};

TEST_F(KubeletFixture, StandardPodFullLifecycle) {
  kubelet_.admit_pod(
      standard_pod("web", 1_GiB, 1_GiB, Duration::seconds(30)));
  sim_.run();
  ASSERT_TRUE(listener_.running.count("web"));
  ASSERT_TRUE(listener_.succeeded.count("web"));
  // Pull (125 MiB @ 125 MB/s ≈ 1.05 s) + sub-ms startup.
  EXPECT_GT(listener_.running["web"], TimePoint::epoch());
  EXPECT_EQ(listener_.succeeded["web"] - listener_.running["web"],
            Duration::seconds(30));
  // Everything torn down.
  EXPECT_EQ(kubelet_.active_pod_count(), 0u);
  EXPECT_EQ(node_.memory_used(), 0_B);
}

TEST_F(KubeletFixture, SgxPodAllocatesAndReleasesEpc) {
  kubelet_.admit_pod(sgx_pod("enclave-app", Pages{8192}, 16_MiB,
                             Duration::seconds(60)));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(30));
  // While running: enclave pages committed, devices allocated, limit set.
  EXPECT_EQ(node_.driver()->pod_pages(
                ContainerRuntime::cgroup_path_for("enclave-app")),
            Pages{4096});
  EXPECT_EQ(node_.device_allocator().allocated(), Pages{8192});
  EXPECT_EQ(node_.driver()->pod_limit(
                ContainerRuntime::cgroup_path_for("enclave-app")),
            Pages{8192});
  sim_.run();
  EXPECT_TRUE(listener_.succeeded.count("enclave-app"));
  EXPECT_EQ(node_.driver()->free_epc_pages(),
            node_.driver()->total_epc_pages());
  EXPECT_EQ(node_.device_allocator().allocated(), Pages{0});
  // The cgroup limit entry is cleaned up with the pod.
  EXPECT_EQ(node_.driver()->pod_limit(
                ContainerRuntime::cgroup_path_for("enclave-app")),
            std::nullopt);
}

TEST_F(KubeletFixture, SgxStartupLatencyFollowsFig6Model) {
  kubelet_.admit_pod(sgx_pod("timed", Pages{8192}, 32_MiB,
                             Duration::seconds(10)));
  sim_.run();
  const Duration pull = registry_.pull_latency("sebvaucher/sgx-base:stress-sgx");
  const Duration expected_start =
      pull + perf_.sgx_startup(32_MiB, node_.driver()->epc().config().usable);
  EXPECT_EQ(listener_.running["timed"] - TimePoint::epoch(), expected_start);
}

TEST_F(KubeletFixture, ImageCachedOnSecondPod) {
  kubelet_.admit_pod(
      standard_pod("first", 1_GiB, 1_GiB, Duration::seconds(5)));
  sim_.run();
  const TimePoint second_submit = sim_.now();
  kubelet_.admit_pod(
      standard_pod("second", 1_GiB, 1_GiB, Duration::seconds(5)));
  sim_.run();
  // No pull the second time: start latency is just the sub-ms startup.
  const Duration start_delay = listener_.running["second"] - second_submit;
  EXPECT_LT(start_delay, Duration::millis(1));
}

TEST_F(KubeletFixture, OverAllocatingPodKilledWhenEnforced) {
  // Declares 1024 pages (4 MiB) but allocates 16 MiB: EINIT is denied and
  // the pod dies right after launch, as in §VI-F.
  kubelet_.admit_pod(sgx_pod("liar", Pages{1024}, 16_MiB,
                             Duration::seconds(60)));
  sim_.run();
  ASSERT_TRUE(listener_.failed.count("liar"));
  EXPECT_EQ(listener_.failed["liar"], "EpcLimitExceeded");
  EXPECT_FALSE(listener_.running.count("liar"));
  // Full cleanup after the kill.
  EXPECT_EQ(kubelet_.active_pod_count(), 0u);
  EXPECT_EQ(node_.device_allocator().allocated(), Pages{0});
  EXPECT_EQ(node_.driver()->free_epc_pages(),
            node_.driver()->total_epc_pages());
}

TEST_F(KubeletFixture, DeviceExhaustionFailsAdmission) {
  kubelet_.admit_pod(sgx_pod("big", Pages{23'936}, 1_MiB,
                             Duration::seconds(60)));
  kubelet_.admit_pod(sgx_pod("late", Pages{1}, 4096_B,
                             Duration::seconds(60)));
  sim_.run();
  ASSERT_TRUE(listener_.failed.count("late"));
  EXPECT_NE(listener_.failed["late"].find("UnexpectedAdmissionError"),
            std::string::npos);
}

TEST_F(KubeletFixture, PodStatsExposeMemoryUsage) {
  kubelet_.admit_pod(
      standard_pod("mem", 2_GiB, 2_GiB, Duration::seconds(60)));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(10));
  std::vector<std::pair<PodName, Bytes>> stats;
  kubelet_.for_each_pod_stat([&](const PodName& pod, Bytes memory_usage) {
    stats.emplace_back(pod, memory_usage);
  });
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, "mem");
  EXPECT_EQ(stats[0].second, 2_GiB);
}

TEST_F(KubeletFixture, PodPidsListed) {
  kubelet_.admit_pod(sgx_pod("p", Pages{100}, Pages{100}.as_bytes(),
                             Duration::seconds(60)));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(10));
  std::vector<PodName> visited;
  kubelet_.for_each_pod_pids(
      [&](const PodName& pod, std::span<const sgx::Pid> pids) {
        visited.push_back(pod);
        EXPECT_EQ(pids.size(), 1u);
      });
  EXPECT_EQ(visited, std::vector<PodName>{"p"});
  EXPECT_EQ(kubelet_.active_pods(), std::vector<PodName>{"p"});
}

TEST_F(KubeletFixture, PodStatsAndPidsReadEachPodsOwnContainers) {
  // Two-container pods, started one after another, with an evicted and a
  // finished pod in between: each active pod's stats and pids are those
  // of its own containers only, as the runtime reports them.
  PodSpec sidecar = standard_pod("b-sidecar", 1_GiB, 1_GiB,
                                 Duration::seconds(60));
  sidecar.containers.push_back(sidecar.containers.front());
  sidecar.containers.back().name = "sidecar";
  kubelet_.admit_pod(sidecar);
  kubelet_.admit_pod(standard_pod("short", 1_GiB, 1_GiB,
                                  Duration::seconds(2)));
  kubelet_.admit_pod(standard_pod("evicted", 1_GiB, 1_GiB,
                                  Duration::seconds(60)));
  PodSpec enclave = sgx_pod("a-enclave", Pages{100}, Pages{100}.as_bytes(),
                            Duration::seconds(60));
  enclave.containers.push_back(enclave.containers.front());
  enclave.containers.back().name = "second";
  kubelet_.admit_pod(enclave);
  sim_.run_until(TimePoint::epoch() + Duration::seconds(10));
  kubelet_.evict_pod("evicted");

  const std::vector<PodName> active{"a-enclave", "b-sidecar"};
  ASSERT_EQ(kubelet_.active_pods(), active);
  const ContainerRuntime& runtime = node_.runtime();
  std::vector<std::pair<PodName, Bytes>> stats;
  kubelet_.for_each_pod_stat([&](const PodName& pod, Bytes memory_usage) {
    stats.emplace_back(pod, memory_usage);
  });
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& [pod, memory_usage] : stats) {
    EXPECT_EQ(memory_usage, runtime.pod_memory_usage(pod)) << pod;
  }
  EXPECT_EQ(stats[1].second, 1_GiB);
  std::map<PodName, std::vector<sgx::Pid>> expected;
  for (const PodName& pod : active) {
    for (const ContainerId id : runtime.containers_of(pod)) {
      expected[pod].push_back(runtime.info(id).pid);
    }
    EXPECT_EQ(expected[pod].size(), 2u) << pod;
  }
  // The evicted and the finished pod are no longer active: not visited.
  std::vector<PodName> visited;
  kubelet_.for_each_pod_pids(
      [&](const PodName& pod, std::span<const sgx::Pid> pids) {
        visited.push_back(pod);
        EXPECT_EQ(std::vector<sgx::Pid>(pids.begin(), pids.end()),
                  expected[pod])
            << pod;
      });
  EXPECT_EQ(visited, active);
}

TEST_F(KubeletFixture, DuplicateAdmissionRejected) {
  kubelet_.admit_pod(
      standard_pod("dup", 1_GiB, 1_GiB, Duration::seconds(60)));
  EXPECT_THROW(kubelet_.admit_pod(standard_pod("dup", 1_GiB, 1_GiB,
                                               Duration::seconds(60))),
               ContractViolation);
}

TEST(KubeletStandalone, SgxPodOnNonSgxNodeFails) {
  sim::Simulation sim;
  sgx::PerfModel perf;
  ImageRegistry registry;
  Node node{standard_machine()};
  RecordingListener listener{sim};
  Kubelet kubelet{sim, node, perf, registry, listener};

  PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = 1_MiB;
  behavior.duration = Duration::seconds(10);
  kubelet.admit_pod(make_stressor_pod("sgx-on-std", {0_B, Pages{10}},
                                      {0_B, Pages{10}}, behavior));
  sim.run();
  ASSERT_TRUE(listener.failed.count("sgx-on-std"));
}

TEST(KubeletStandalone, StockDriverAcceptsOverAllocation) {
  sim::Simulation sim;
  sgx::PerfModel perf;
  ImageRegistry registry;
  Node node{sgx_machine(), /*enforce_epc_limits=*/false};
  RecordingListener listener{sim};
  Kubelet kubelet{sim, node, perf, registry, listener};

  PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = 16_MiB;  // 4096 pages, way above the 1-page claim
  behavior.duration = Duration::seconds(30);
  kubelet.admit_pod(make_stressor_pod("malicious", {0_B, Pages{1}},
                                      {0_B, Pages{1}}, behavior));
  sim.run_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_TRUE(listener.running.count("malicious"));
  EXPECT_EQ(node.driver()->pod_pages(
                ContainerRuntime::cgroup_path_for("malicious")),
            Pages{4096});
  sim.run();
  EXPECT_TRUE(listener.succeeded.count("malicious"));
}

}  // namespace
}  // namespace sgxo::cluster
