// The two placement policies of the SGX-aware scheduler (paper §IV).
//
// binpack — fit as many jobs as possible on the same node, advancing to
// the next node only when resources become insufficient. Node order is
// kept consistent by always sorting the same way; for standard jobs,
// SGX-capable nodes are sorted to the end of the list so their scarce EPC
// is preserved for SGX jobs.
//
// spread — even out load by choosing the job-node combination that yields
// the smallest standard deviation of load across the nodes. Like binpack,
// it resorts to SGX-capable nodes for standard jobs only when there is no
// other way to run the job.
#pragma once

#include <optional>
#include <vector>

#include "cluster/pod.hpp"
#include "orch/scheduler_framework.hpp"

namespace sgxo::core {

enum class PlacementPolicy { kBinpack, kSpread };

[[nodiscard]] const char* to_string(PlacementPolicy policy);

/// binpack choice among feasible nodes (all must pass orch::fits).
[[nodiscard]] std::optional<cluster::NodeName> binpack_select(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& feasible);

/// spread choice: needs the cluster-wide view to evaluate the load
/// standard deviation each candidate placement would produce.
[[nodiscard]] std::optional<cluster::NodeName> spread_select(
    const orch::PodRecord& pod, const std::vector<orch::NodeView>& feasible,
    const std::vector<orch::NodeView>& all);

}  // namespace sgxo::core
