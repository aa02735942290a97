#include "orch/default_scheduler.hpp"

#include <algorithm>

namespace sgxo::orch {

std::vector<NodeView> request_based_views(
    ApiServer& api, std::vector<std::vector<const PodRecord*>>* assigned) {
  std::vector<ApiServer::NodeEntry> nodes = api.schedulable_nodes();
  // Stable, deterministic node order.
  std::sort(nodes.begin(), nodes.end(),
            [](const ApiServer::NodeEntry& a, const ApiServer::NodeEntry& b) {
              return a.node->name() < b.node->name();
            });
  std::vector<NodeView> views;
  views.reserve(nodes.size());
  if (assigned != nullptr) assigned->clear();
  for (const ApiServer::NodeEntry& entry : nodes) {
    NodeView view;
    view.name = entry.node->name();
    view.sgx_capable = entry.node->has_sgx();
    view.memory_capacity = entry.node->memory_capacity();
    view.epc_capacity = entry.node->epc_capacity();
    PodFilter on_node;
    on_node.node = view.name;
    std::vector<const PodRecord*> pods = api.list_pods(on_node);
    for (const PodRecord* record : pods) {
      const cluster::ResourceAmounts& request = record->requests;
      view.memory_used += request.memory;
      view.epc_used += request.epc_pages;
      view.epc_requested += request.epc_pages;
    }
    views.push_back(view);
    if (assigned != nullptr) assigned->push_back(std::move(pods));
  }
  return views;
}

DefaultScheduler::DefaultScheduler(sim::Simulation& sim, ApiServer& api,
                                   Duration period, std::string identity)
    : Scheduler(sim, api, kName, period) {
  if (!identity.empty()) set_identity(std::move(identity));
}

std::vector<NodeView> DefaultScheduler::collect_views() {
  return request_based_views(api());
}

std::optional<cluster::NodeName> DefaultScheduler::select_node(
    const PodRecord& pod, const std::vector<NodeView>& feasible,
    const std::vector<NodeView>& all) {
  (void)pod;
  (void)all;
  const auto best = std::min_element(
      feasible.begin(), feasible.end(),
      [](const NodeView& a, const NodeView& b) {
        const double la = a.memory_load() + a.epc_load();
        const double lb = b.memory_load() + b.epc_load();
        if (la != lb) return la < lb;
        return a.name < b.name;
      });
  return best->name;
}

}  // namespace sgxo::orch
