#include "core/migration_controller.hpp"

#include <algorithm>

#include "orch/default_scheduler.hpp"

namespace sgxo::core {

MigrationController::MigrationController(sim::Simulation& sim,
                                         orch::ApiServer& api,
                                         const sgx::PerfModel& perf,
                                         Duration period)
    : sim_(&sim), api_(&api), service_(perf), period_(period) {
  SGXO_CHECK(period_ > Duration{});
}

MigrationController::~MigrationController() { stop(); }

void MigrationController::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { run_once(); });
}

void MigrationController::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

std::optional<MigrationController::Plan> MigrationController::plan_for(
    const orch::PodRecord& blocked,
    const std::vector<orch::NodeView>& views) const {
  const Pages needed = blocked.requests.epc_pages;
  const cluster::NodeName& selector = blocked.spec.node_selector;

  std::optional<Plan> best;
  Pages best_victim_pages{UINT64_MAX};

  for (const orch::NodeView& source : views) {
    if (!source.sgx_capable) continue;
    if (!selector.empty() && selector != source.name) {
      continue;  // the blocked pod can only ever land on its selected node
    }
    const Pages source_free = source.epc_capacity >= source.epc_requested
                                  ? source.epc_capacity - source.epc_requested
                                  : Pages{0};
    if (source_free >= needed) continue;  // already fits; not our problem
    const Pages deficit = needed - source_free;

    // Candidate victims on this node: running, migratable SGX pods whose
    // departure closes the deficit.
    const orch::ApiServer::NodeEntry* source_entry =
        api_->find_node(source.name);
    orch::PodFilter running_here;
    running_here.phase = cluster::PodPhase::kRunning;
    running_here.node = source.name;
    for (const orch::PodRecord* record : api_->list_pods(running_here)) {
      const cluster::PodName& victim = record->spec.name;
      if (!record->wants_sgx) continue;
      if (!record->spec.node_selector.empty()) continue;  // pinned pods stay
      if (!source_entry->kubelet->pod_migratable(victim)) continue;
      const Pages victim_pages = record->requests.epc_pages;
      if (victim_pages < deficit) continue;       // would not free enough
      if (victim_pages >= best_victim_pages) continue;  // bigger than best

      // A target that can absorb the victim.
      for (const orch::NodeView& target : views) {
        if (!target.sgx_capable || target.name == source.name) continue;
        const Pages target_free =
            target.epc_capacity >= target.epc_requested
                ? target.epc_capacity - target.epc_requested
                : Pages{0};
        if (target_free < victim_pages) continue;
        best = Plan{victim, source.name, target.name};
        best_victim_pages = victim_pages;
        break;
      }
    }
  }
  return best;
}

std::size_t MigrationController::run_once() {
  // The oldest pending SGX pod drives the decision (FCFS, as everywhere).
  const std::vector<orch::NodeView> views =
      orch::request_based_views(*api_);

  const orch::PodRecord* blocked = nullptr;
  orch::PodFilter pending;
  pending.phase = cluster::PodPhase::kPending;
  pending.scheduler = api_->default_scheduler();
  for (const orch::PodRecord* record : api_->list_pods(pending)) {
    if (!record->wants_sgx) continue;
    const bool fits_somewhere =
        std::any_of(views.begin(), views.end(),
                    [&](const orch::NodeView& view) {
                      return orch::fits(*record, view);
                    });
    if (!fits_somewhere) {
      blocked = record;
      break;  // FCFS: only the oldest blocked pod triggers migration
    }
  }
  if (blocked == nullptr) return 0;

  const std::optional<Plan> plan = plan_for(*blocked, views);
  if (!plan.has_value()) return 0;

  api_->migrate(plan->victim, plan->to, service_);
  ++migrations_;
  return 1;
}

}  // namespace sgxo::core
