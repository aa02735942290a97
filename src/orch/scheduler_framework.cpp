#include "orch/scheduler_framework.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sgxo::orch {

bool fits(const PodRecord& pod, const NodeView& view) {
  const cluster::ResourceAmounts& request = pod.requests;
  // nodeSelector pins the pod to one node.
  if (!pod.spec.node_selector.empty() && pod.spec.node_selector != view.name) {
    return false;
  }
  // Hardware compatibility: SGX-enabled jobs need an SGX node.
  if (pod.wants_sgx && !view.sgx_capable) return false;
  // Standard memory saturation.
  if (view.memory_used + request.memory > view.memory_capacity) return false;
  // EPC saturation — over-commitment is deliberately prevented (§V-A):
  // the usage estimate must fit, and so must the device-plugin request
  // accounting (pages are finite device items).
  if (pod.wants_sgx) {
    if (view.epc_used + request.epc_pages > view.epc_capacity) return false;
    if (view.epc_requested + request.epc_pages > view.epc_capacity) {
      return false;
    }
  }
  return true;
}

namespace {

/// Request shapes that failed fits() on every view of the current cycle,
/// per placement class: the SGX flag and the node selector, i.e.
/// everything fits() reads of a pod besides its request vector. Views only
/// lose capacity within a cycle (the one write is the reservation after a
/// kBound), and fits() is monotone in the request, so a later pod of the
/// same class whose request is >= a failed shape in every component fits
/// nowhere either. Each class keeps only its minimal failed shapes (an
/// antichain), so a deep queue of similar pods costs one comparison per
/// shape instead of one fits() per node.
class InfeasibleShapes {
 public:
  [[nodiscard]] bool dominated(const PodRecord& pod) const {
    const std::size_t cls = class_of(pod);
    if (cls == classes_.size()) return false;
    const std::vector<cluster::ResourceAmounts>& minimal =
        classes_[cls].minimal;
    return std::any_of(minimal.begin(), minimal.end(),
                       [&](const cluster::ResourceAmounts& failed) {
                         return covers(pod.requests, failed);
                       });
  }

  /// Records a pod that fit no view (and was not already dominated).
  void add(const PodRecord& pod) {
    const std::size_t cls = class_of(pod);
    if (cls == classes_.size()) {
      classes_.push_back(Class{pod.wants_sgx, pod.spec.node_selector, {}});
    }
    std::vector<cluster::ResourceAmounts>& minimal = classes_[cls].minimal;
    minimal.erase(std::remove_if(minimal.begin(), minimal.end(),
                                 [&](const cluster::ResourceAmounts& failed) {
                                   return covers(failed, pod.requests);
                                 }),
                  minimal.end());
    minimal.push_back(pod.requests);
  }

 private:
  struct Class {
    bool wants_sgx;
    cluster::NodeName node_selector;
    std::vector<cluster::ResourceAmounts> minimal;
  };

  /// a >= b in every component.
  static bool covers(const cluster::ResourceAmounts& a,
                     const cluster::ResourceAmounts& b) {
    return a.memory >= b.memory && a.epc_pages >= b.epc_pages;
  }

  /// Index of the pod's class; classes_.size() when it has none yet.
  [[nodiscard]] std::size_t class_of(const PodRecord& pod) const {
    std::size_t cls = 0;
    while (cls < classes_.size() &&
           (classes_[cls].wants_sgx != pod.wants_sgx ||
            classes_[cls].node_selector != pod.spec.node_selector)) {
      ++cls;
    }
    return cls;
  }

  std::vector<Class> classes_;
};

}  // namespace

Scheduler::Scheduler(sim::Simulation& sim, ApiServer& api, std::string name,
                     Duration period)
    : sim_(&sim), api_(&api), name_(std::move(name)), period_(period) {
  SGXO_CHECK_MSG(!name_.empty(), "scheduler needs a name");
  SGXO_CHECK_MSG(period_ > Duration{}, "scheduling period must be positive");
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::set_identity(std::string identity) {
  identity_ = std::move(identity);
}

void Scheduler::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { run_once(); });
}

void Scheduler::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void Scheduler::enable_shared_state(SharedStateConfig config) {
  SGXO_CHECK_MSG(config.shard_count >= 1, "shard_count must be >= 1");
  SGXO_CHECK_MSG(config.shard < config.shard_count,
                 "shard must be < shard_count");
  fleet_ = config;
}

void Scheduler::crash() {
  stop();
  crashed_ = true;
}

void Scheduler::restart() {
  if (!crashed_) return;
  crashed_ = false;
  // A reborn replica trusts nothing it cached; the pending queue and node
  // commitments are re-read from the ApiServer every cycle anyway, and
  // the backoff clocks of its previous life are meaningless now.
  backoffs_.clear();
  start();
}

Scheduler::Health Scheduler::health() const {
  Health health;
  health.name = name_;
  health.identity = identity();
  health.crashed = crashed_;
  health.cycles = cycles_;
  health.bound = bound_;
  health.bind_conflicts = bind_conflicts_;
  health.guard_rejections = guard_rejections_;
  health.attestation_waits = attestation_waits_;
  health.backoff_skips = backoff_skips_;
  health.degraded_cycles = degraded_cycles();
  health.shard = fleet_.shard;
  health.shard_count = fleet_.shard_count;
  health.steal_cycles = steal_cycles_;
  return health;
}

void Scheduler::set_bind_backoff(Duration base, Duration cap) {
  SGXO_CHECK_MSG(base > Duration{}, "backoff base must be positive");
  SGXO_CHECK_MSG(cap >= base, "backoff cap must be >= base");
  backoff_base_ = base;
  backoff_cap_ = cap;
}

void Scheduler::disable_bind_backoff() {
  backoff_base_ = Duration{};
  backoff_cap_ = Duration{};
  backoffs_.clear();
}

void Scheduler::note_bind_failure(const cluster::PodName& pod) {
  if (!bind_backoff_enabled()) return;
  PodBackoff& entry = backoffs_[pod];
  entry.delay = entry.delay == Duration{}
                    ? backoff_base_
                    : std::min(entry.delay * 2, backoff_cap_);
  entry.not_before = sim_->now() + entry.delay;
}

void Scheduler::prune_backoffs() {
  for (auto it = backoffs_.begin(); it != backoffs_.end();) {
    const bool still_pending =
        api_->has_pod(it->first) &&
        api_->pod(it->first).phase == cluster::PodPhase::kPending;
    it = still_pending ? std::next(it) : backoffs_.erase(it);
  }
}

std::vector<const PodRecord*> Scheduler::pull_pending() {
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = name_;
  if (fleet_.shard_count == 1) return api_->list_pods(filter);

  // The shard is a pure function of the pod name, so the pull — and with
  // it the whole cycle — is bit-identical across same-seed runs. An empty
  // own shard sends the replica to its neighbours in a fixed probe order,
  // so a crashed (or merely slow) replica's backlog is absorbed without a
  // failover step.
  filter.shard_count = fleet_.shard_count;
  filter.shard = fleet_.shard;
  std::vector<const PodRecord*> pulled = api_->list_pods(filter);
  for (std::uint32_t k = 1; pulled.empty() && k < fleet_.shard_count; ++k) {
    filter.shard = (fleet_.shard + k) % fleet_.shard_count;
    pulled = api_->list_pods(filter);
    if (!pulled.empty()) ++steal_cycles_;
  }
  return pulled;
}

std::size_t Scheduler::run_once() {
  if (crashed_) return 0;

  ++cycles_;
  begin_cycle();
  std::size_t bound_this_cycle = 0;
  bool unschedulable_reported = false;

  // FCFS: older pods get first pick of this cycle's resources; pods that
  // fit nowhere right now stay pending without blocking younger ones
  // (Kubernetes semantics). list_pods serves the maintained pending-queue
  // index in scheduling order — no store scan, no per-pod lookup. A fleet
  // replica walks its whole shard (see pull_pending).
  //
  // The cycle works on a snapshot: record pointers plus the resource
  // version each pod had when the cycle started. Binds are conditional on
  // that version, so anything that mutates a pod mid-cycle — a watch
  // callback fired by an earlier bind, another scheduler binding the same
  // pod — turns this scheduler's attempt into a clean conflict instead of
  // a double placement.
  struct PendingSnapshot {
    const PodRecord* record;
    std::uint64_t version;
  };
  const std::vector<const PodRecord*> pulled = pull_pending();
  std::vector<PendingSnapshot> snapshot;
  snapshot.reserve(pulled.size());
  for (const PodRecord* record : pulled) {
    snapshot.push_back(PendingSnapshot{record, record->resource_version});
  }
  // The views are built by the first pod that needs them. The pull and the
  // backoff skips before it only read, so these are the views a build at
  // the start of the cycle would have produced.
  std::vector<NodeView> views;
  bool views_built = false;
  InfeasibleShapes infeasible;
  std::vector<NodeView> feasible;
  for (const PendingSnapshot& pending : snapshot) {
    const PodRecord& record = *pending.record;
    const cluster::PodName& pod_name = record.spec.name;

    if (bind_backoff_enabled()) {
      const auto backoff_it = backoffs_.find(pod_name);
      if (backoff_it != backoffs_.end() &&
          sim_->now() < backoff_it->second.not_before) {
        ++backoff_skips_;
        continue;  // still backing off — never blocks younger pods
      }
    }

    if (!views_built) {
      views = collect_views();
      views_built = true;
      feasible.reserve(views.size());
    }

    // A pod dominated by a shape that already fit nowhere this cycle is
    // infeasible without asking fits() (see InfeasibleShapes).
    feasible.clear();
    if (!infeasible.dominated(record)) {
      std::copy_if(views.begin(), views.end(), std::back_inserter(feasible),
                   [&](const NodeView& view) { return fits(record, view); });
      if (feasible.empty()) infeasible.add(record);
    }
    if (feasible.empty()) {
      if (!unschedulable_reported) {
        unschedulable_reported = true;
        on_unschedulable(record, views);
      }
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }

    const std::optional<cluster::NodeName> chosen =
        select_node(record, feasible, views);
    if (!chosen.has_value()) {
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }

    const ApiServer::BindOutcome outcome =
        api_->try_bind(pod_name, *chosen, pending.version);
    if (outcome == ApiServer::BindStatus::kStaleVersion ||
        outcome == ApiServer::BindStatus::kNotPending) {
      // Lost the race: the pod changed (or was taken) since the cycle's
      // snapshot. It stays wherever the winner put it; if still pending
      // it is re-enqueued for the next cycle, without a backoff penalty.
      ++bind_conflicts_;
      continue;
    }
    if (outcome == ApiServer::BindStatus::kAdmissionRejected) {
      // The kubelet's live commitments disagree with this cycle's view —
      // the stale-view safety net. Back the pod off like any other
      // failed placement; the view is rebuilt next cycle.
      ++guard_rejections_;
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }
    if (outcome == ApiServer::BindStatus::kNodeUnavailable) {
      // The node died between view collection and bind.
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }
    if (outcome == ApiServer::BindStatus::kAttestationPending ||
        outcome == ApiServer::BindStatus::kAttestationRejected) {
      // The attestation gate parked the bind (verification in flight) or
      // refused the node. Back off and retry; a pending verdict usually
      // resolves within one round-trip.
      ++attestation_waits_;
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }
    backoffs_.erase(pod_name);
    ++bound_this_cycle;

    // Account this binding in the cycle-local view so later pods in the
    // same cycle see the reservation (metrics will only catch up at the
    // next probe interval).
    const auto view_it =
        std::find_if(views.begin(), views.end(), [&](const NodeView& v) {
          return v.name == *chosen;
        });
    SGXO_CHECK(view_it != views.end());
    const cluster::ResourceAmounts& request = record.requests;
    view_it->memory_used += request.memory;
    view_it->epc_used += request.epc_pages;
    view_it->epc_requested += request.epc_pages;
  }

  // Keep the backoff map bounded: entries of pods that left the pending
  // queue (bound elsewhere, finished, failed) are dropped periodically.
  if (bind_backoff_enabled() && cycles_ % 64 == 0) prune_backoffs();

  bound_ += bound_this_cycle;
  return bound_this_cycle;
}

}  // namespace sgxo::orch
