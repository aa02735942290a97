// Microbenchmark of scheduler decision latency: one full scheduling cycle
// (view collection through the live metrics pipeline + FCFS placement over
// the pending queue) for both placement policies, as the pending queue
// grows into the thousands — plus the shared-state scaling curve, a model
// of 1/2/4/8 distributed scheduler replicas (not the in-process
// orch::Scheduler fleet) draining sharded pending queues of up to ~1M pods
// over 100k nodes through per-pod try_bind calls. It reports
// per-shard cycle latency, aggregate binds/sec (parallel-makespan model:
// wall clock = the busiest replica's summed cycle time) and the observed
// conflict rate.
//
// Besides the human-readable tables it writes BENCH_scheduler.json
// (per-cycle latency vs pod count + the multi-scheduler curve) so the
// perf trajectory of the hot path is tracked across PRs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "exp/fixture.hpp"

namespace {

using namespace sgxo;
using namespace sgxo::literals;

cluster::PodSpec pending_pod(int i, bool sgx) {
  cluster::PodBehavior behavior;
  behavior.sgx = sgx;
  behavior.actual_usage = sgx ? Bytes{4_MiB} : Bytes{2_GiB};
  behavior.duration = Duration::hours(2);
  cluster::ResourceAmounts request;
  if (sgx) {
    request.epc_pages = Pages{1024};
  } else {
    request.memory = 2_GiB;
  }
  return cluster::make_stressor_pod(
      (sgx ? "sgx-" : "std-") + std::to_string(i), request, request,
      behavior);
}

struct Measurement {
  std::string policy;
  int pods = 0;
  std::size_t pending_at_measure = 0;
  std::vector<double> cycle_us;  // sorted after collection

  [[nodiscard]] double mean() const {
    double sum = 0.0;
    for (const double v : cycle_us) sum += v;
    return cycle_us.empty() ? 0.0 : sum / static_cast<double>(cycle_us.size());
  }
  [[nodiscard]] double min() const { return cycle_us.front(); }
  [[nodiscard]] double max() const { return cycle_us.back(); }
  [[nodiscard]] double median() const {
    return cycle_us[cycle_us.size() / 2];
  }
};

Measurement run_cycle_bench(core::PlacementPolicy policy, int pods,
                            int cycles) {
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(policy);
  scheduler.stop();  // drive cycles manually
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  // A saturated queue: capacity-sized requests keep most pods pending, so
  // each timed cycle filters the full queue.
  for (int i = 0; i < pods; ++i) {
    cluster.api().submit(pending_pod(i, i % 2 == 0));
  }
  cluster.sim().run_until(TimePoint::epoch() + Duration::seconds(30));

  // Warmup: the first cycles bind whatever fits; afterwards the pending
  // count is stable and every timed cycle does the same work.
  (void)scheduler.run_once();
  (void)scheduler.run_once();

  Measurement m;
  m.policy = core::to_string(policy);
  m.pods = pods;
  orch::PodFilter queue;
  queue.phase = cluster::PodPhase::kPending;
  queue.scheduler = scheduler.name();
  m.pending_at_measure = cluster.api().list_pods(queue).size();
  m.cycle_us.reserve(static_cast<std::size_t>(cycles));
  for (int c = 0; c < cycles; ++c) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t bound = scheduler.run_once();
    const auto stop = std::chrono::steady_clock::now();
    if (bound != 0) std::cerr << "warning: queue not saturated\n";
    m.cycle_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(m.cycle_us.begin(), m.cycle_us.end());
  return m;
}

// ---- shared-state scaling curve -------------------------------------------

constexpr int kPodsPerNode = 10;
constexpr sgxo::Pages kPodEpc{64};
constexpr std::size_t kSharedBatch = 128;

struct SharedMeasurement {
  int schedulers = 0;
  int pods = 0;
  int nodes = 0;
  std::vector<double> cycle_us;  // sorted after collection
  double makespan_s = 0.0;
  std::uint64_t bound = 0;
  std::uint64_t entries = 0;
  std::uint64_t conflicts = 0;  // stale/not-pending + admission rejections

  [[nodiscard]] double binds_per_sec() const {
    return makespan_s > 0.0 ? static_cast<double>(bound) / makespan_s : 0.0;
  }
  [[nodiscard]] double conflict_rate() const {
    return entries > 0
               ? static_cast<double>(conflicts) / static_cast<double>(entries)
               : 0.0;
  }
  [[nodiscard]] double mean_us() const {
    double sum = 0.0;
    for (const double v : cycle_us) sum += v;
    return cycle_us.empty() ? 0.0 : sum / static_cast<double>(cycle_us.size());
  }
  [[nodiscard]] double median_us() const {
    return cycle_us.empty() ? 0.0 : cycle_us[cycle_us.size() / 2];
  }
  [[nodiscard]] double max_us() const {
    return cycle_us.empty() ? 0.0 : cycle_us.back();
  }
};

/// One modeled distributed replica driven against the ApiServer surface:
/// shard-filtered limited pulls, planning against a periodically refreshed
/// node snapshot, and one per-pod try_bind for every planned pod.
/// The snapshot is deliberately allowed to go stale between refreshes —
/// that is where real multi-scheduler conflicts come from.
struct BenchReplica {
  std::uint32_t shard = 0;
  std::size_t cursor = 0;           // round-robin node pick, offset per shard
  std::vector<std::int64_t> free_pages;  // snapshot of per-node free EPC
  std::uint64_t cycles = 0;
  bool force_refresh = true;
  double busy_us = 0.0;
};

SharedMeasurement run_shared_bench(int schedulers, int pods) {
  using sgxo::Pages;
  namespace cluster = sgxo::cluster;
  namespace orch = sgxo::orch;

  SharedMeasurement m;
  m.schedulers = schedulers;
  m.pods = pods;
  m.nodes = pods / kPodsPerNode;

  sgxo::sim::Simulation sim;
  orch::ApiServer api{sim};
  api.set_event_retention(10000);  // a million binds must not hoard events
  sgxo::sgx::PerfModel perf;
  cluster::ImageRegistry registry;

  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<std::unique_ptr<cluster::Kubelet>> kubelets;
  std::vector<cluster::NodeName> node_names;
  nodes.reserve(static_cast<std::size_t>(m.nodes));
  kubelets.reserve(static_cast<std::size_t>(m.nodes));
  node_names.reserve(static_cast<std::size_t>(m.nodes));
  for (int i = 0; i < m.nodes; ++i) {
    cluster::MachineSpec spec;
    spec.name = "n-" + std::to_string(i);
    spec.cpu_cores = 16;
    spec.memory = 64_GiB;
    spec.epc = sgxo::sgx::EpcConfig::with_usable(
        Pages{kPodEpc.count() * kPodsPerNode}.as_bytes());
    nodes.push_back(std::make_unique<cluster::Node>(spec));
    kubelets.push_back(std::make_unique<cluster::Kubelet>(
        sim, *nodes.back(), perf, registry, api));
    api.register_node(*nodes.back(), *kubelets.back());
    node_names.push_back(spec.name);
  }

  for (int i = 0; i < pods; ++i) {
    cluster::PodBehavior behavior;
    behavior.sgx = true;
    behavior.actual_usage = kPodEpc.as_bytes();
    behavior.duration = Duration::hours(24);
    api.submit(cluster::make_stressor_pod("p-" + std::to_string(i),
                                          {0_B, kPodEpc}, {0_B, kPodEpc},
                                          behavior));
  }

  // Snapshots refresh every other cycle on small clusters; on very large
  // ones the O(nodes) view collection is amortized over more batches,
  // like a probe interval spanning several scheduling periods.
  const std::uint64_t refresh_every = m.nodes > 20000 ? 8 : 2;

  std::vector<BenchReplica> fleet(static_cast<std::size_t>(schedulers));
  for (int s = 0; s < schedulers; ++s) {
    fleet[static_cast<std::size_t>(s)].shard = static_cast<std::uint32_t>(s);
    fleet[static_cast<std::size_t>(s)].cursor = static_cast<std::size_t>(
        (static_cast<long long>(s) * m.nodes) / schedulers);
    fleet[static_cast<std::size_t>(s)].free_pages.assign(
        static_cast<std::size_t>(m.nodes), 0);
  }

  orch::PodFilter pull;
  pull.phase = cluster::PodPhase::kPending;
  pull.scheduler = api.default_scheduler();
  pull.shard_count = static_cast<std::uint32_t>(schedulers);
  pull.limit = kSharedBatch;

  bool progress = true;
  for (int round = 0; progress && round < 100000; ++round) {
    progress = false;
    for (BenchReplica& replica : fleet) {
      pull.shard = replica.shard;
      const auto start = std::chrono::steady_clock::now();

      const auto pending = api.list_pods(pull);
      if (pending.empty()) continue;  // shard drained — replica goes idle
      progress = true;
      ++replica.cycles;

      if (replica.force_refresh || replica.cycles % refresh_every == 1) {
        for (std::size_t n = 0; n < node_names.size(); ++n) {
          replica.free_pages[n] = static_cast<std::int64_t>(
              nodes[n]->device_allocator().available().count());
        }
        replica.force_refresh = false;
      }

      for (const orch::PodRecord* record : pending) {
        // Round-robin probe from the replica's cursor against its (stale)
        // snapshot; a full lap without a fit leaves the pod pending.
        bool placed = false;
        for (std::size_t probes = 0;
             probes < replica.free_pages.size() && !placed; ++probes) {
          const std::size_t n = replica.cursor;
          replica.cursor = (replica.cursor + 1) % replica.free_pages.size();
          if (replica.free_pages[n] >= kPodEpc.count()) {
            replica.free_pages[n] -= kPodEpc.count();
            using Status = orch::ApiServer::BindStatus;
            const orch::ApiServer::BindOutcome outcome = api.try_bind(
                record->spec.name, node_names[n], record->resource_version);
            ++m.entries;
            if (outcome.bound()) {
              ++m.bound;
            } else if (outcome == Status::kStaleVersion ||
                       outcome == Status::kNotPending ||
                       outcome == Status::kAdmissionRejected) {
              ++m.conflicts;
              replica.force_refresh = true;  // the snapshot went stale
            }
            placed = true;
          }
        }
        if (!placed) {
          replica.force_refresh = true;
          break;  // snapshot exhausted — refresh before planning more
        }
      }

      const auto stop = std::chrono::steady_clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(stop - start).count();
      replica.busy_us += us;
      m.cycle_us.push_back(us);
    }
  }

  double makespan_us = 0.0;
  for (const BenchReplica& replica : fleet) {
    makespan_us = std::max(makespan_us, replica.busy_us);
  }
  m.makespan_s = makespan_us / 1e6;
  std::sort(m.cycle_us.begin(), m.cycle_us.end());
  return m;
}

void write_json(const std::vector<Measurement>& results,
                const std::vector<SharedMeasurement>& shared,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_scheduler\",\n"
      << "  \"metric\": \"scheduling cycle latency\",\n"
      << "  \"unit\": \"microseconds\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    out << "    {\"policy\": \"" << m.policy << "\", \"pods\": " << m.pods
        << ", \"pending_at_measure\": " << m.pending_at_measure
        << ", \"cycles\": " << m.cycle_us.size()
        << ", \"mean_us\": " << m.mean() << ", \"median_us\": " << m.median()
        << ", \"min_us\": " << m.min() << ", \"max_us\": " << m.max() << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"shared_state_model\": \"distributed replicas driving "
         "per-pod try_bind; makespan_s and binds_per_sec are a parallel-makespan "
         "model (busiest replica's summed cycle time), not a measurement\",\n"
      << "  \"shared_state\": [\n";
  for (std::size_t i = 0; i < shared.size(); ++i) {
    const SharedMeasurement& m = shared[i];
    out << "    {\"schedulers\": " << m.schedulers << ", \"pods\": " << m.pods
        << ", \"nodes\": " << m.nodes << ", \"cycles\": " << m.cycle_us.size()
        << ", \"mean_cycle_us\": " << m.mean_us()
        << ", \"median_cycle_us\": " << m.median_us()
        << ", \"max_cycle_us\": " << m.max_us()
        << ", \"makespan_s\": " << m.makespan_s
        << ", \"binds_per_sec\": " << m.binds_per_sec()
        << ", \"bound\": " << m.bound
        << ", \"conflict_rate\": " << m.conflict_rate() << "}"
        << (i + 1 < shared.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  constexpr int kPodCounts[] = {64, 256, 1024, 5120};
  constexpr int kCycles = 15;

  std::vector<Measurement> results;
  for (const core::PlacementPolicy policy :
       {core::PlacementPolicy::kBinpack, core::PlacementPolicy::kSpread}) {
    for (const int pods : kPodCounts) {
      results.push_back(run_cycle_bench(policy, pods, kCycles));
    }
  }

  Table table({"policy", "pods", "pending", "mean [us]", "median [us]",
               "min [us]"});
  for (const Measurement& m : results) {
    table.add_row({m.policy, std::to_string(m.pods),
                   std::to_string(m.pending_at_measure),
                   fmt_double(m.mean(), 1), fmt_double(m.median(), 1),
                   fmt_double(m.min(), 1)});
  }
  table.print(std::cout);

  constexpr int kSharedPods[] = {100000, 1000000};
  constexpr int kSharedSchedulers[] = {1, 2, 4, 8};
  std::vector<SharedMeasurement> shared;
  for (const int pods : kSharedPods) {
    for (const int schedulers : kSharedSchedulers) {
      shared.push_back(run_shared_bench(schedulers, pods));
    }
  }

  Table shared_table({"schedulers", "pods", "nodes", "median cycle [us]",
                      "model makespan [s]", "model binds/sec",
                      "conflict rate"});
  for (const SharedMeasurement& m : shared) {
    shared_table.add_row(
        {std::to_string(m.schedulers), std::to_string(m.pods),
         std::to_string(m.nodes), fmt_double(m.median_us(), 1),
         fmt_double(m.makespan_s, 3), fmt_double(m.binds_per_sec(), 0),
         fmt_double(m.conflict_rate(), 4)});
  }
  std::cout << "\nshared-state model: distributed replicas driving "
               "per-pod try_bind (makespan = busiest replica's summed "
               "cycle time)\n";
  shared_table.print(std::cout);

  // The acceptance gate for the shared-state path: at the 100k-pod point
  // four schedulers must deliver >= 2x the aggregate binds/sec of one.
  double one = 0.0;
  double four = 0.0;
  for (const SharedMeasurement& m : shared) {
    if (m.pods != kSharedPods[0]) continue;
    if (m.schedulers == 1) one = m.binds_per_sec();
    if (m.schedulers == 4) four = m.binds_per_sec();
  }
  if (one > 0.0) {
    std::cout << "\n4-vs-1 scheduler speedup at " << kSharedPods[0]
              << " pods: " << fmt_double(four / one, 2) << "x\n";
    if (four < 2.0 * one) {
      std::cerr << "warning: 4-scheduler aggregate below the 2x target\n";
    }
  }

  write_json(results, shared, "BENCH_scheduler.json");
  std::cout << "\nwrote BENCH_scheduler.json\n";

  // Every modeled replica fleet must drain its whole queue: a pod left
  // unbound means the bind path lost it.
  for (const SharedMeasurement& m : shared) {
    if (m.bound != static_cast<std::uint64_t>(m.pods)) {
      std::cerr << "error: shared bench with " << m.schedulers
                << " schedulers bound " << m.bound << " of " << m.pods
                << " pods\n";
      return 1;
    }
  }
  return 0;
}
