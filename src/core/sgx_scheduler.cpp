#include "core/sgx_scheduler.hpp"

#include <algorithm>
#include <string_view>

#include "orch/default_scheduler.hpp"

namespace sgxo::core {

std::string SgxAwareScheduler::default_name(PlacementPolicy policy) {
  return std::string("sgx-") + to_string(policy);
}

namespace {

std::string resolve_name(const SgxSchedulerConfig& config) {
  return config.name.empty() ? SgxAwareScheduler::default_name(config.policy)
                             : config.name;
}

}  // namespace

SgxAwareScheduler::SgxAwareScheduler(sim::Simulation& sim,
                                     orch::ApiServer& api,
                                     const tsdb::Database& db,
                                     SgxSchedulerConfig config)
    : Scheduler(sim, api, resolve_name(config), config.period),
      config_(std::move(config)),
      metrics_(db, config_.metrics_window) {
  if (!config_.identity.empty()) set_identity(config_.identity);
  enable_shared_state(config_.shared_state);
}

void SgxAwareScheduler::begin_cycle() {
  // Graceful degradation: a metrics pipeline that has stopped producing
  // samples (probe outage, TSDB write failures, stale replica) must not
  // be trusted — a window full of dead pods' last samples, with every
  // live pod missing, both over- and under-estimates. Past the staleness
  // threshold this cycle schedules on declared requests alone, exactly
  // like the Kubernetes default scheduler (the safe baseline).
  cycle_degraded_ = false;
  if (config_.stale_metrics_threshold > Duration{}) {
    const std::optional<Duration> age = metrics_.staleness(sim().now());
    cycle_degraded_ =
        age.has_value() && *age > config_.stale_metrics_threshold;
  }
  if (cycle_degraded_) ++degraded_cycles_;
}

std::vector<orch::NodeView> SgxAwareScheduler::collect_views() {
  // Start from the request-based view: capacities plus the device-plugin
  // accounting column (epc_requested) and request-based usage. Its one
  // per-node pod read also serves the unmeasured-pod fallback below.
  std::vector<std::vector<const orch::PodRecord*>> assigned;
  std::vector<orch::NodeView> views =
      orch::request_based_views(api(), &assigned);
  if (cycle_degraded_) return views;

  const TimePoint now = sim().now();
  const std::vector<ClusterMetrics::PodUsage> epc_measured =
      metrics_.epc_per_pod(now);
  const std::vector<ClusterMetrics::PodUsage> mem_measured =
      metrics_.memory_per_pod(now);

  // Replace the request-based estimate with measurement-informed usage:
  // each query row is charged to its node's view once (views are sorted
  // by name; rows of nodes without a view are ignored).
  struct Measured {
    Bytes memory_used{};
    Pages epc_used{};
    std::vector<std::string_view> pods;
  };
  std::vector<Measured> measured(views.size());
  const auto view_of = [&](const cluster::NodeName& node) -> Measured* {
    const auto it = std::lower_bound(
        views.begin(), views.end(), node,
        [](const orch::NodeView& view, const cluster::NodeName& name) {
          return view.name < name;
        });
    if (it == views.end() || it->name != node) return nullptr;
    return &measured[static_cast<std::size_t>(it - views.begin())];
  };
  for (const ClusterMetrics::PodUsage& usage : epc_measured) {
    if (Measured* node = view_of(usage.node)) {
      node->epc_used += Pages::ceil_from(usage.usage);
      node->pods.push_back(usage.pod);
    }
  }
  for (const ClusterMetrics::PodUsage& usage : mem_measured) {
    if (Measured* node = view_of(usage.node)) {
      node->memory_used += usage.usage;
      node->pods.push_back(usage.pod);
    }
  }

  for (std::size_t i = 0; i < views.size(); ++i) {
    Measured& node = measured[i];
    std::sort(node.pods.begin(), node.pods.end());
    // Assigned pods not yet visible in the window contribute their
    // declared requests — "combining the two kinds of data" (§IV).
    for (const orch::PodRecord* record : assigned[i]) {
      if (std::binary_search(node.pods.begin(), node.pods.end(),
                             std::string_view{record->spec.name})) {
        continue;
      }
      const cluster::ResourceAmounts& request = record->requests;
      node.memory_used += request.memory;
      node.epc_used += request.epc_pages;
    }
    views[i].memory_used = node.memory_used;
    views[i].epc_used = node.epc_used;
    // views[i].epc_requested stays request-based: it mirrors the device
    // plugin's hard page accounting.
  }
  return views;
}

std::optional<cluster::NodeName> SgxAwareScheduler::select_node(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& feasible,
    const std::vector<orch::NodeView>& all) {
  switch (config_.policy) {
    case PlacementPolicy::kBinpack:
      return binpack_select(pod, feasible);
    case PlacementPolicy::kSpread:
      return spread_select(pod, feasible, all);
  }
  return std::nullopt;
}

void SgxAwareScheduler::on_unschedulable(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& all) {
  const cluster::PodSpec& spec = pod.spec;
  if (!config_.enable_preemption || spec.priority <= 0) return;

  // Per node, collect strictly-lower-priority victims (cheapest first:
  // lowest priority, then smallest footprint) and check whether evicting
  // a prefix of them makes the pod fit. The node needing the fewest
  // victims wins; ties break by name.
  struct Candidate {
    cluster::NodeName node;
    std::vector<cluster::PodName> victims;
  };
  std::optional<Candidate> best;

  for (const orch::NodeView& view : all) {
    if (pod.wants_sgx && !view.sgx_capable) continue;
    if (!spec.node_selector.empty() && spec.node_selector != view.name) {
      continue;
    }

    struct Victim {
      cluster::PodName name;
      int priority;
      cluster::ResourceAmounts request;
    };
    std::vector<Victim> victims;
    orch::PodFilter on_node;
    on_node.node = view.name;
    for (const orch::PodRecord* record : api().list_pods(on_node)) {
      if (record->spec.priority >= spec.priority) continue;
      victims.push_back(
          Victim{record->spec.name, record->spec.priority, record->requests});
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim& a, const Victim& b) {
                if (a.priority != b.priority) return a.priority < b.priority;
                if (a.request.epc_pages != b.request.epc_pages) {
                  return a.request.epc_pages < b.request.epc_pages;
                }
                return a.request.memory < b.request.memory;
              });

    orch::NodeView hypothetical = view;
    std::vector<cluster::PodName> chosen;
    for (const Victim& victim : victims) {
      if (orch::fits(pod, hypothetical)) break;
      hypothetical.memory_used =
          hypothetical.memory_used >= victim.request.memory
              ? hypothetical.memory_used - victim.request.memory
              : Bytes{0};
      hypothetical.epc_used =
          hypothetical.epc_used >= victim.request.epc_pages
              ? hypothetical.epc_used - victim.request.epc_pages
              : Pages{0};
      hypothetical.epc_requested =
          hypothetical.epc_requested >= victim.request.epc_pages
              ? hypothetical.epc_requested - victim.request.epc_pages
              : Pages{0};
      chosen.push_back(victim.name);
    }
    if (!orch::fits(pod, hypothetical)) continue;  // even total eviction fails
    if (!best || chosen.size() < best->victims.size() ||
        (chosen.size() == best->victims.size() && view.name < best->node)) {
      best = Candidate{view.name, std::move(chosen)};
    }
  }

  if (!best || best->victims.empty()) return;
  for (const cluster::PodName& victim : best->victims) {
    api().evict(victim, "Preempted by higher-priority pod " + spec.name);
    ++preemptions_;
  }
}

}  // namespace sgxo::core
