#include "cluster/kubelet.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace sgxo::cluster {

Kubelet::Kubelet(sim::Simulation& sim, Node& node, const sgx::PerfModel& perf,
                 const ImageRegistry& registry, PodLifecycleListener& listener)
    : sim_(&sim),
      node_(&node),
      perf_(&perf),
      registry_(&registry),
      listener_(&listener) {}

Pages Kubelet::effective_epc_limit(const PodSpec& spec) {
  const Pages limit = spec.total_limits().epc_pages;
  return limit.count() > 0 ? limit : spec.total_requests().epc_pages;
}

bool Kubelet::can_admit(const PodSpec& spec) const {
  if (active_.find(spec.name) != active_.end()) return false;
  if (!spec.wants_sgx()) return true;
  if (!node_->has_sgx()) return false;
  return node_->device_allocator().available() >=
         spec.total_requests().epc_pages;
}

void Kubelet::admit_pod(const PodSpec& spec) {
  SGXO_CHECK_MSG(active_.find(spec.name) == active_.end(),
                 "pod already active on node");
  const ResourceAmounts requests = spec.total_requests();

  if (spec.wants_sgx()) {
    if (!node_->has_sgx()) {
      listener_->on_pod_failed(spec.name, "UnexpectedAdmissionError: node has "
                                          "no SGX device");
      return;
    }
    // Device plugin allocation: the scheduler's resource accounting should
    // make exhaustion impossible, but a failure is still surfaced as the
    // Kubernetes UnexpectedAdmissionError rather than a crash.
    if (!node_->device_allocator().allocate(spec.name, requests.epc_pages)) {
      listener_->on_pod_failed(spec.name,
                               "UnexpectedAdmissionError: out of EPC devices");
      return;
    }
    // cgo glue: communicate the (cgroup path, EPC page limit) pair to the
    // driver at pod creation — before any container starts.
    node_->driver()->set_pod_limit(
        ContainerRuntime::cgroup_path_for(spec.name),
        effective_epc_limit(spec));
  }

  const auto emplaced = active_.emplace(
      spec.name, ActivePod{spec, {}, std::nullopt, true, std::nullopt});
  const std::uint64_t incarnation = ++next_incarnation_;
  emplaced.first->second.incarnation = incarnation;

  if (attestation_enabled()) {
    gate_admission(spec.name, incarnation, 0);
  } else {
    begin_image_pull(spec.name, incarnation);
  }
}

void Kubelet::enable_attestation(sgx::QuoteTransport& transport,
                                 std::function<sgx::Quote()> quote_source,
                                 AttestationPolicy policy) {
  SGXO_CHECK_MSG(static_cast<bool>(quote_source), "null quote source");
  attestation_transport_ = &transport;
  quote_source_ = std::move(quote_source);
  attestation_policy_ = policy;
}

void Kubelet::enable_attestation(sgx::QuoteTransport& transport,
                                 std::function<sgx::Quote()> quote_source) {
  enable_attestation(transport, std::move(quote_source), AttestationPolicy{});
}

void Kubelet::gate_admission(const PodName& name, std::uint64_t incarnation,
                             int attempt) {
  const auto it = active_.find(name);
  if (it == active_.end() || it->second.incarnation != incarnation) {
    return;  // torn down (or superseded) while gated
  }

  // A fresh local verdict covers the whole node: only the first admission
  // per revalidate_ttl pays a verification round-trip.
  if (has_local_verdict_ && sim_->now() < local_verdict_expires_) {
    begin_image_pull(name, incarnation);
    return;
  }

  ++attestation_verifications_;
  const sgx::QuoteVerdict verdict =
      attestation_transport_->verify(quote_source_());
  sim_->schedule_after(verdict.latency, [this, name, incarnation, attempt,
                                         verdict] {
    const auto pod_it = active_.find(name);
    if (pod_it == active_.end() ||
        pod_it->second.incarnation != incarnation) {
      return;  // torn down mid-verification
    }
    const PodSpec& pod_spec = pod_it->second.spec;

    if (verdict.accepted()) {
      has_local_verdict_ = true;
      local_verdict_expires_ =
          sim_->now() + attestation_policy_.revalidate_ttl;
      begin_image_pull(name, incarnation);
      return;
    }
    if (!verdict.transient()) {
      // Definitive rejection: this node must not run the pod.
      ++attestation_rejected_pods_;
      teardown(pod_it->second);
      active_.erase(pod_it);
      listener_->on_pod_failed(name, "AttestationRejected");
      return;
    }
    // Transient verifier failure. Non-SGX pods may fail open; SGX pods
    // fail closed and retry with capped exponential backoff + jitter.
    if (!pod_spec.wants_sgx() && attestation_policy_.fail_open_non_sgx) {
      ++degraded_admissions_;
      begin_image_pull(name, incarnation);
      return;
    }
    ++attestation_retries_;
    Duration backoff = attestation_policy_.backoff_base;
    for (int i = 0; i < attempt && backoff < attestation_policy_.backoff_cap;
         ++i) {
      backoff = backoff * 2;
    }
    if (backoff > attestation_policy_.backoff_cap) {
      backoff = attestation_policy_.backoff_cap;
    }
    // Deterministic jitter (the kubelet owns no seeded Rng): hash of
    // (node, pod, attempt) decorrelates retry herds across nodes while
    // keeping same-seed replays bit-identical.
    const Duration jitter = Duration::millis(static_cast<std::int64_t>(
        fnv1a(node_->name() + "|" + name + "|" + std::to_string(attempt)) %
        250));
    sim_->schedule_after(backoff + jitter, [this, name, incarnation, attempt] {
      gate_admission(name, incarnation, attempt + 1);
    });
  });
}

void Kubelet::begin_image_pull(const PodName& name,
                               std::uint64_t incarnation) {
  const auto it = active_.find(name);
  if (it == active_.end() || it->second.incarnation != incarnation) {
    return;  // torn down while gated
  }
  // Image pull (cached after the first pull on this node).
  Duration pull{};
  const std::string image = it->second.spec.containers.front().image;
  if (!node_->image_cache().cached(image) && registry_->has(image)) {
    pull = registry_->pull_latency(image);
  }
  sim_->schedule_after(pull, [this, name, incarnation, image] {
    node_->image_cache().store(image);
    start_containers(name, incarnation);
  });
}

void Kubelet::start_containers(const PodName& name,
                               std::uint64_t incarnation) {
  const auto it = active_.find(name);
  if (it == active_.end() || it->second.incarnation != incarnation) {
    return;  // torn down while pulling
  }
  ActivePod& pod = it->second;

  std::vector<std::string> mounts;
  if (pod.spec.wants_sgx()) {
    mounts.push_back(DevicePlugin::kDevicePath);
  }
  for (const ContainerSpec& container : pod.spec.containers) {
    pod.containers.push_back(node_->runtime().run(name, container, mounts));
  }

  // Startup latency before the workload is live (Fig. 6 model). On SGX 2
  // nodes a dynamic-profile enclave only commits its initial working set
  // at build time — the main startup win of dynamic memory (§VI-G).
  Duration startup = perf_->standard_startup();
  if (pod.spec.behavior.sgx) {
    const Bytes build_size = use_dynamic_memory(pod.spec)
                                 ? pod.spec.behavior.initial_usage()
                                 : pod.spec.behavior.actual_usage;
    startup = perf_->sgx_startup(build_size,
                                 node_->driver()->epc().config().usable);
  }
  sim_->schedule_after(
      startup, [this, name, incarnation] { launch_workload(name, incarnation); });
}

void Kubelet::launch_workload(const PodName& name, std::uint64_t incarnation) {
  const auto it = active_.find(name);
  if (it == active_.end() || it->second.incarnation != incarnation) return;
  ActivePod& pod = it->second;
  const PodBehavior& behavior = pod.spec.behavior;

  if (behavior.sgx) {
    sgx::Sdk sdk{*node_->driver(), *perf_};
    const sgx::Pid pid =
        node_->runtime().info(pod.containers.front()).pid;
    const sgx::CgroupPath cgroup = ContainerRuntime::cgroup_path_for(name);
    const bool dynamic = use_dynamic_memory(pod.spec);
    const Bytes build_size =
        dynamic ? behavior.initial_usage() : behavior.actual_usage;
    try {
      auto launch = sdk.launch_enclave(pid, cgroup, build_size);
      pod.enclave.emplace(std::move(launch.enclave));
    } catch (const sgx::EnclaveInitDenied&) {
      // The driver's enforcement hook killed the pod right after launch —
      // exactly what happens to the 44 over-allocating trace jobs and the
      // malicious containers when limits are enabled (Fig. 11).
      teardown(pod);
      active_.erase(it);
      listener_->on_pod_failed(name, "EpcLimitExceeded");
      return;
    }
    if (dynamic) {
      schedule_dynamic_profile(name, incarnation);
    }
  } else {
    // The virtual-memory stressor allocates its trace-reported maximum.
    node_->runtime().set_memory_usage(pod.containers.front(),
                                      behavior.actual_usage);
  }

  listener_->on_pod_running(name);
  const Duration duration = behavior.duration;
  pod.completion_due = sim_->now() + duration;
  sim_->schedule_after(
      duration, [this, name, incarnation] { complete_pod(name, incarnation); });
}

bool Kubelet::use_dynamic_memory(const PodSpec& spec) const {
  return spec.behavior.sgx && spec.behavior.dynamic_profile() &&
         node_->has_sgx() &&
         node_->driver()->version() == sgx::SgxVersion::kSgx2;
}

void Kubelet::schedule_dynamic_profile(const PodName& name,
                                       std::uint64_t incarnation) {
  const auto it = active_.find(name);
  SGXO_CHECK(it != active_.end());
  const PodBehavior& behavior = it->second.spec.behavior;
  const Bytes delta = behavior.actual_usage - behavior.initial_usage();
  if (delta.count() == 0) return;
  const Duration third =
      Duration::micros(behavior.duration.micros_count() / 3);

  sim_->schedule_after(third, [this, name, incarnation, delta] {
    const auto pod_it = active_.find(name);
    if (pod_it == active_.end() ||
        pod_it->second.incarnation != incarnation ||
        !pod_it->second.enclave.has_value()) {
      return;  // pod already gone
    }
    try {
      (void)pod_it->second.enclave->grow(delta);
    } catch (const sgx::EnclaveGrowthDenied&) {
      // Growth beyond the pod's advertised limit: the SGX 2 port of the
      // enforcement hook kills the pod mid-run.
      teardown(pod_it->second);
      active_.erase(pod_it);
      listener_->on_pod_failed(name, "EpcLimitExceeded");
    }
  });
  sim_->schedule_after(third * 2, [this, name, incarnation, delta] {
    const auto pod_it = active_.find(name);
    if (pod_it == active_.end() ||
        pod_it->second.incarnation != incarnation ||
        !pod_it->second.enclave.has_value()) {
      return;
    }
    // Only shrink what was actually grown.
    if (pod_it->second.enclave->pages() > Pages::ceil_from(delta)) {
      (void)pod_it->second.enclave->shrink(delta);
    }
  });
}

void Kubelet::complete_pod(const PodName& name, std::uint64_t incarnation) {
  const auto it = active_.find(name);
  if (it == active_.end() || it->second.incarnation != incarnation) {
    return;  // evicted (and possibly re-admitted) since this event was armed
  }
  teardown(it->second);
  active_.erase(it);
  listener_->on_pod_succeeded(name);
}

void Kubelet::teardown(ActivePod& pod) {
  if (pod.enclave.has_value()) {
    pod.enclave->destroy();
    pod.enclave.reset();
  }
  node_->runtime().kill_pod(pod.spec.name);
  if (pod.spec.wants_sgx() && node_->has_sgx()) {
    node_->device_allocator().release(pod.spec.name);
    if (pod.limits_installed) {
      node_->driver()->forget_pod(
          ContainerRuntime::cgroup_path_for(pod.spec.name));
    }
  }
}

bool Kubelet::pod_migratable(const PodName& pod) const {
  const auto it = active_.find(pod);
  if (it == active_.end()) return false;
  const ActivePod& active = it->second;
  // SGX 2 dynamic-profile enclaves keep pending grow/trim events on their
  // source node; checkpointing them mid-profile is out of scope (the
  // restored copy would never grow). Fixed-size enclaves migrate freely.
  if (use_dynamic_memory(active.spec)) return false;
  return active.enclave.has_value() && active.completion_due.has_value();
}

Kubelet::MigrationBundle Kubelet::extract_for_migration(
    const PodName& pod, sgx::MigrationService& service) {
  const auto it = active_.find(pod);
  SGXO_CHECK_MSG(it != active_.end() && it->second.enclave.has_value(),
                 "pod is not migratable");
  ActivePod& active = it->second;

  MigrationBundle bundle;
  bundle.spec = active.spec;
  bundle.remaining = *active.completion_due - sim_->now();
  if (bundle.remaining < Duration{}) bundle.remaining = Duration{};

  // The MigrationService destroys the source enclave (self-destroy), so
  // the handle must give up ownership first.
  const sgx::EnclaveId id = active.enclave->release_ownership();
  active.enclave.reset();
  const std::uint64_t lineage = std::hash<std::string>{}(pod);
  auto result = service.checkpoint(*node_->driver(), id, lineage);
  bundle.checkpoint = result.checkpoint;
  bundle.checkpoint_latency = result.latency;

  // Local teardown: containers, devices, limit entry. The already-armed
  // completion event will find nothing and fizzle.
  teardown(active);
  active_.erase(it);
  return bundle;
}

void Kubelet::admit_migrated(MigrationBundle bundle,
                             sgx::MigrationService& service,
                             Duration inbound_delay) {
  const PodName name = bundle.spec.name;
  SGXO_CHECK_MSG(active_.find(name) == active_.end(),
                 "migrated pod already active on target");
  SGXO_CHECK_MSG(node_->has_sgx(), "migration target must be SGX-capable");

  if (!node_->device_allocator().allocate(
          name, bundle.spec.total_requests().epc_pages)) {
    listener_->on_pod_failed(name,
                             "MigrationFailed: out of EPC devices on target");
    return;
  }
  node_->driver()->set_pod_limit(ContainerRuntime::cgroup_path_for(name),
                                 effective_epc_limit(bundle.spec));
  const auto emplaced = active_.emplace(
      name, ActivePod{bundle.spec, {}, std::nullopt, true, std::nullopt});
  const std::uint64_t incarnation = ++next_incarnation_;
  emplaced.first->second.incarnation = incarnation;

  // Wire transfer, then container restart (PSW again — one instance per
  // container) and enclave restore.
  const Duration psw = perf_->config().psw_startup;
  auto shared = std::make_shared<MigrationBundle>(std::move(bundle));
  sim_->schedule_after(inbound_delay + psw, [this, name, incarnation, shared,
                                             &service] {
    const auto it = active_.find(name);
    if (it == active_.end() || it->second.incarnation != incarnation) return;
    ActivePod& pod = it->second;

    std::vector<std::string> mounts{DevicePlugin::kDevicePath};
    for (const ContainerSpec& container : pod.spec.containers) {
      pod.containers.push_back(
          node_->runtime().run(name, container, mounts));
    }
    const sgx::Pid pid = node_->runtime().info(pod.containers.front()).pid;
    sgx::MigrationService::RestoreResult restored{};
    try {
      restored = service.restore(*node_->driver(), shared->checkpoint, pid,
                                 ContainerRuntime::cgroup_path_for(name));
    } catch (const DomainError& error) {
      teardown(pod);
      active_.erase(it);
      listener_->on_pod_failed(name,
                               std::string("MigrationFailed: ") + error.what());
      return;
    }
    pod.enclave.emplace(*node_->driver(), *perf_, restored.enclave,
                        shared->checkpoint.pages());

    // Resume the stressor for its remaining runtime after the restore
    // latency has elapsed.
    const Duration resume_in = restored.latency + shared->remaining;
    pod.completion_due = sim_->now() + resume_in;
    sim_->schedule_after(resume_in, [this, name, incarnation] {
      complete_pod(name, incarnation);
    });
  });
}

void Kubelet::evict_pod(const PodName& pod) {
  const auto it = active_.find(pod);
  if (it == active_.end()) return;
  teardown(it->second);
  active_.erase(it);
}

void Kubelet::handle_node_failure() {
  std::vector<PodName> victims = active_pods();
  for (const PodName& pod : victims) {
    const auto it = active_.find(pod);
    if (it == active_.end()) continue;
    teardown(it->second);
    active_.erase(it);
    listener_->on_pod_failed(pod, "NodeFailure");
  }
}

// The stats below read each pod's own container ids: every container of
// an active pod is recorded in ActivePod::containers when started (in id
// order) and killed only by teardown, which also drops the pod.

void Kubelet::for_each_pod_stat(
    const std::function<void(const PodName&, Bytes)>& visit) const {
  for (const auto& [name, pod] : active_) {
    Bytes usage{};
    for (const ContainerId id : pod.containers) {
      usage += node_->runtime().info(id).memory_usage;
    }
    visit(name, usage);
  }
}

void Kubelet::for_each_pod_pids(
    const std::function<void(const PodName&, std::span<const sgx::Pid>)>&
        visit) const {
  std::vector<sgx::Pid> pids;
  for (const auto& [name, pod] : active_) {
    pids.clear();
    for (const ContainerId id : pod.containers) {
      pids.push_back(node_->runtime().info(id).pid);
    }
    visit(name, pids);
  }
}

std::vector<PodName> Kubelet::active_pods() const {
  std::vector<PodName> pods;
  pods.reserve(active_.size());
  for (const auto& [name, pod] : active_) {
    pods.push_back(name);
  }
  return pods;
}

}  // namespace sgxo::cluster
