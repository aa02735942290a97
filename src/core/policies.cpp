#include "core/policies.hpp"

#include <algorithm>
#include <limits>

#include "common/stats.hpp"

namespace sgxo::core {

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kBinpack: return "binpack";
    case PlacementPolicy::kSpread: return "spread";
  }
  return "?";
}

namespace {

/// Consistent binpack node order: lexicographic by name, with SGX nodes
/// pushed to the back for standard jobs.
bool binpack_before(const orch::NodeView& a, const orch::NodeView& b,
                    bool standard_job) {
  if (standard_job && a.sgx_capable != b.sgx_capable) {
    return !a.sgx_capable;
  }
  return a.name < b.name;
}

/// For standard jobs: drop SGX nodes from the candidate set when at least
/// one non-SGX node is feasible (both policies preserve EPC this way).
std::vector<orch::NodeView> preferred_candidates(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& feasible) {
  if (pod.wants_sgx) return feasible;
  std::vector<orch::NodeView> non_sgx;
  std::copy_if(feasible.begin(), feasible.end(), std::back_inserter(non_sgx),
               [](const orch::NodeView& v) { return !v.sgx_capable; });
  return non_sgx.empty() ? feasible : non_sgx;
}

/// The load the spread policy balances: the job's contended resource —
/// EPC fraction for SGX jobs, standard-memory fraction otherwise.
double load_of(const orch::NodeView& view, bool sgx_job) {
  return sgx_job ? view.epc_load() : view.memory_load();
}

/// Standard deviation of load across the relevant nodes if `pod` were
/// placed on `candidate`. For SGX jobs only SGX-capable nodes carry the
/// balanced resource; for standard jobs every schedulable node does.
double stddev_after_placement(const orch::PodRecord& pod,
                              const cluster::NodeName& candidate,
                              const std::vector<orch::NodeView>& all) {
  const bool sgx_job = pod.wants_sgx;
  const cluster::ResourceAmounts& request = pod.requests;
  std::vector<double> loads;
  loads.reserve(all.size());
  for (const orch::NodeView& view : all) {
    if (sgx_job && !view.sgx_capable) continue;
    orch::NodeView adjusted = view;
    if (view.name == candidate) {
      adjusted.memory_used += request.memory;
      adjusted.epc_used += request.epc_pages;
    }
    loads.push_back(load_of(adjusted, sgx_job));
  }
  return population_stddev(loads);
}

}  // namespace

std::optional<cluster::NodeName> binpack_select(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& feasible) {
  if (feasible.empty()) return std::nullopt;
  const bool standard_job = !pod.wants_sgx;
  const auto first = std::min_element(
      feasible.begin(), feasible.end(),
      [&](const orch::NodeView& a, const orch::NodeView& b) {
        return binpack_before(a, b, standard_job);
      });
  return first->name;
}

std::optional<cluster::NodeName> spread_select(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& feasible,
    const std::vector<orch::NodeView>& all) {
  const std::vector<orch::NodeView> candidates =
      preferred_candidates(pod, feasible);
  if (candidates.empty()) return std::nullopt;

  std::optional<cluster::NodeName> best;
  double best_stddev = std::numeric_limits<double>::infinity();
  for (const orch::NodeView& view : candidates) {
    const double stddev = stddev_after_placement(pod, view.name, all);
    if (stddev < best_stddev ||
        (stddev == best_stddev && (!best || view.name < *best))) {
      best_stddev = stddev;
      best = view.name;
    }
  }
  return best;
}

}  // namespace sgxo::core
