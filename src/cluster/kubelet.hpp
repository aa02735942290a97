// The node agent. When the master binds a pod here, the Kubelet:
//   1. reserves the pod's EPC device items (device-plugin allocation),
//   2. transmits the pod's EPC limit to the isgx driver (the paper's
//      16-line Go + 22-line C cgo glue, §V-D) *before* containers start,
//   3. pulls the image if not cached,
//   4. starts the containers (mounting /dev/isgx into SGX pods),
//   5. lets the workload allocate — enclave creation + EINIT for SGX pods,
//      plain memory for standard pods; the driver may deny EINIT,
//   6. reports pod phase transitions back to the control plane,
//   7. tears everything down when the stressor's duration elapses.
//
// Startup latencies follow the measured model (Fig. 6): ~100 ms PSW/AESM
// per container plus size-dependent enclave allocation; <1 ms for standard
// pods.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/pod.hpp"
#include "sgx/attestation_verifier.hpp"
#include "sgx/migration.hpp"
#include "sgx/perf_model.hpp"
#include "sgx/sdk.hpp"
#include "sim/simulation.hpp"

namespace sgxo::cluster {

/// Control-plane callbacks; implemented by the API server.
class PodLifecycleListener {
 public:
  virtual ~PodLifecycleListener() = default;
  virtual void on_pod_running(const PodName& pod) = 0;
  virtual void on_pod_succeeded(const PodName& pod) = 0;
  virtual void on_pod_failed(const PodName& pod, const std::string& reason) = 0;
};

class Kubelet {
 public:
  Kubelet(sim::Simulation& sim, Node& node, const sgx::PerfModel& perf,
          const ImageRegistry& registry, PodLifecycleListener& listener);

  Kubelet(const Kubelet&) = delete;
  Kubelet& operator=(const Kubelet&) = delete;

  [[nodiscard]] const NodeName& node_name() const { return node_->name(); }
  [[nodiscard]] Node& node() { return *node_; }

  /// Accepts a pod bound to this node by a scheduler. Admission can fail
  /// synchronously (device exhaustion) — reported through the listener.
  void admit_pod(const PodSpec& spec);

  /// Admission guard: would admit_pod succeed right now? Re-checks the
  /// pod's declared EPC request against the node's *live* device-plugin
  /// commitments (the ledger of every pod currently admitted here), so a
  /// bind delivered by a scheduler with a stale node view — a sibling
  /// shared-state replica that planned against the same snapshot, a
  /// restarted scheduler trusting cached state — is rejected before it
  /// can over-commit the EPC.
  /// Deliberately EPC-only: standard memory over-commit is tolerated at
  /// admission, exactly as in Kubernetes. ApiServer::try_bind calls it
  /// right before handing the pod over, so nothing runs in between.
  [[nodiscard]] bool can_admit(const PodSpec& spec) const;

  // ---- attestation at bind delivery ----------------------------------------
  /// Node-local re-verification policy, mirroring the EPC admission guard:
  /// even if the control plane's cached verdict said yes, the kubelet
  /// re-attests before containers start (defence against a stale
  /// control-plane cache).
  struct AttestationPolicy {
    /// A local verdict this fresh is trusted without a new round-trip, so
    /// only the first admission per TTL pays verification latency.
    Duration revalidate_ttl = Duration::minutes(5);
    /// Capped exponential backoff for transient verifier failures
    /// (unavailable / timed out), plus deterministic per-attempt jitter.
    Duration backoff_base = Duration::millis(500);
    Duration backoff_cap = Duration::seconds(30);
    /// Degradation: non-SGX pods start anyway while the verifier is
    /// unreachable (counted in degraded_admissions); SGX pods always fail
    /// closed and keep retrying.
    bool fail_open_non_sgx = true;
  };

  /// Enables quote re-verification at bind delivery. `quote_source`
  /// produces this node's current quote on demand. (Two overloads instead
  /// of a defaulted policy: GCC rejects a nested class's member
  /// initializers in the enclosing class's default arguments.)
  void enable_attestation(sgx::QuoteTransport& transport,
                          std::function<sgx::Quote()> quote_source,
                          AttestationPolicy policy);
  void enable_attestation(sgx::QuoteTransport& transport,
                          std::function<sgx::Quote()> quote_source);
  [[nodiscard]] bool attestation_enabled() const {
    return attestation_transport_ != nullptr;
  }
  /// Verification round-trips issued by this kubelet.
  [[nodiscard]] std::uint64_t attestation_verifications() const {
    return attestation_verifications_;
  }
  /// Admissions re-scheduled after a transient verifier failure.
  [[nodiscard]] std::uint64_t attestation_retries() const {
    return attestation_retries_;
  }
  /// Non-SGX pods started without a verdict (fail-open policy).
  [[nodiscard]] std::uint64_t degraded_admissions() const {
    return degraded_admissions_;
  }
  /// Pods failed with "AttestationRejected" (definitive negative verdict).
  [[nodiscard]] std::uint64_t attestation_rejected_pods() const {
    return attestation_rejected_pods_;
  }

  /// The stats Heapster scrapes: `visit(pod, memory_usage)` for every
  /// active pod in name order, with the standard memory usage summed over
  /// the pod's containers. `pod` is the kubelet's own copy of the name
  /// (valid until the pod leaves this node).
  void for_each_pod_stat(
      const std::function<void(const PodName&, Bytes)>& visit) const;

  /// The per-process EPC walk of the SGX probe and the contention
  /// monitor: `visit(pod, pids)` for every active pod in name order, with
  /// the pids of the pod's containers in start order — what the driver's
  /// per-process ioctl is asked about. `pod` is as for for_each_pod_stat;
  /// `pids` lives only for the call.
  void for_each_pod_pids(
      const std::function<void(const PodName&, std::span<const sgx::Pid>)>&
          visit) const;
  [[nodiscard]] std::vector<PodName> active_pods() const;
  [[nodiscard]] std::size_t active_pod_count() const { return active_.size(); }

  // ---- enclave migration (paper §VIII future work) -------------------------
  /// Everything that moves with a pod during live migration.
  struct MigrationBundle {
    PodSpec spec;
    /// Runtime left when the quiescent point was reached.
    Duration remaining{};
    sgx::EnclaveCheckpoint checkpoint;
    /// Quiescence + capture latency already spent on the source.
    Duration checkpoint_latency{};
  };

  /// True if the pod is running here with a live enclave (only SGX pods
  /// migrate; standard pods are out of scope, as in the paper).
  [[nodiscard]] bool pod_migratable(const PodName& pod) const;

  /// Quiesces, checkpoints and tears the pod down locally. The pod's
  /// completion event becomes a no-op; the caller owns the bundle.
  [[nodiscard]] MigrationBundle extract_for_migration(
      const PodName& pod, sgx::MigrationService& service);

  /// Resumes a migrated pod on this node after `inbound_delay` (the
  /// checkpoint + wire-transfer time): reserves devices, reinstalls the
  /// pod's EPC limit, restarts containers + PSW, restores the enclave and
  /// schedules the remaining runtime. Failures surface via the listener.
  void admit_migrated(MigrationBundle bundle, sgx::MigrationService& service,
                      Duration inbound_delay);

  /// Evicts one pod immediately (preemption): full local teardown, no
  /// listener callback — the control plane initiating the eviction owns
  /// the pod's phase transition. No-op for pods not active here.
  void evict_pod(const PodName& pod);

  /// Node failure: every active pod is torn down and reported failed with
  /// reason "NodeFailure". Used by failure-injection experiments.
  void handle_node_failure();

 private:
  struct ActivePod {
    PodSpec spec;
    std::vector<ContainerId> containers;
    std::optional<sgx::EnclaveHandle> enclave;
    bool limits_installed = false;
    /// When the stressor's runtime elapses (set once running).
    std::optional<TimePoint> completion_due;
    /// Per-admission stamp. An eviction requeues the pod under the *same*
    /// name, so scheduled lifecycle events (verdict arrival, pull done,
    /// startup done, completion, grow/trim) must not act on a later
    /// re-admission of that name: each event captures the incarnation it
    /// was armed for and fizzles on mismatch.
    std::uint64_t incarnation = 0;
  };

  /// Attestation stage of admission: consults the local verdict, verifies
  /// through the transport when stale, and retries transient failures with
  /// capped exponential backoff + jitter. Chains into begin_image_pull.
  void gate_admission(const PodName& name, std::uint64_t incarnation,
                      int attempt);
  /// Image-pull stage (the admission path after any attestation gate).
  void begin_image_pull(const PodName& name, std::uint64_t incarnation);
  void start_containers(const PodName& name, std::uint64_t incarnation);
  void launch_workload(const PodName& name, std::uint64_t incarnation);
  /// True when this pod should use SGX 2 dynamic enclave memory: it has a
  /// dynamic profile *and* this node's driver is SGX 2 (§VI-G). SGX 1
  /// nodes fall back to committing the peak at build time.
  [[nodiscard]] bool use_dynamic_memory(const PodSpec& spec) const;
  /// Arms the grow (duration/3) and trim (2·duration/3) events.
  void schedule_dynamic_profile(const PodName& name,
                                std::uint64_t incarnation);
  void complete_pod(const PodName& name, std::uint64_t incarnation);
  void teardown(ActivePod& pod);
  /// The pod's EPC limit as installed in the driver: the declared limit,
  /// falling back to the request when no explicit limit was given.
  [[nodiscard]] static Pages effective_epc_limit(const PodSpec& spec);

  sim::Simulation* sim_;
  Node* node_;
  const sgx::PerfModel* perf_;
  const ImageRegistry* registry_;
  PodLifecycleListener* listener_;
  std::map<PodName, ActivePod> active_;
  /// Monotonic admission counter feeding ActivePod::incarnation.
  std::uint64_t next_incarnation_ = 0;

  // Attestation at bind delivery (disabled until enable_attestation).
  sgx::QuoteTransport* attestation_transport_ = nullptr;
  std::function<sgx::Quote()> quote_source_;
  AttestationPolicy attestation_policy_;
  /// Local node verdict: fresh admissions skip the round-trip until it
  /// expires.
  bool has_local_verdict_ = false;
  TimePoint local_verdict_expires_;
  std::uint64_t attestation_verifications_ = 0;
  std::uint64_t attestation_retries_ = 0;
  std::uint64_t degraded_admissions_ = 0;
  std::uint64_t attestation_rejected_pods_ = 0;
};

}  // namespace sgxo::cluster
