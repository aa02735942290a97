// Test helpers: the pod names behind the two list_pods queries the orch
// tests assert on most — a scheduler's pending queue (queue order) and a
// node's assigned pods (pod-name order).
#pragma once

#include <string>
#include <vector>

#include "orch/api_server.hpp"

namespace sgxo::orch {

inline std::vector<cluster::PodName> names_of(const ApiServer& api,
                                              const PodFilter& filter) {
  std::vector<cluster::PodName> out;
  for (const PodRecord* record : api.list_pods(filter)) {
    out.push_back(record->spec.name);
  }
  return out;
}

inline std::vector<cluster::PodName> pending_names(
    const ApiServer& api, const std::string& scheduler) {
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = scheduler;
  return names_of(api, filter);
}

inline std::vector<cluster::PodName> assigned_names(
    const ApiServer& api, const cluster::NodeName& node) {
  PodFilter filter;
  filter.node = node;
  return names_of(api, filter);
}

}  // namespace sgxo::orch
