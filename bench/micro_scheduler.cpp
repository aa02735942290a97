// Microbenchmark of scheduler decision latency: one full scheduling cycle
// (view collection through the live metrics pipeline + FCFS placement over
// the pending queue) for both placement policies, as the pending queue
// grows into the thousands — plus the shared-state curve: the real
// SimulatedCluster::add_shared_state_fleet with 1/2/4/8 SGX-aware replicas
// draining 10k and 100k pods over 1k and 10k nodes. The replicas run one
// after another on one thread, so the curve shows what sharding the queue
// costs or saves in this implementation, not a parallel speedup. It
// reports the host wall time of the drain and of each cycle, the drain in
// simulated time, and the fleet's bind conflicts, guard rejections and
// steal cycles.
//
// Besides the human-readable tables it writes BENCH_scheduler.json
// (per-cycle latency vs pod count + the multi-scheduler curve) so the
// perf trajectory of the hot path is tracked across PRs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
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
constexpr Pages kPodEpc{64};

/// One fleet size draining one queue. Every field is measured: host wall
/// clock for the drain and for each run_once, the virtual clock for the
/// simulated drain time, and the fleet's own counters.
struct SharedMeasurement {
  int schedulers = 0;
  int pods = 0;
  int nodes = 0;
  std::vector<double> cycle_us;  // host time of each run_once, sorted
  double drain_wall_s = 0.0;     // host wall time of the whole drain loop
  double drain_sim_s = 0.0;      // simulated time: submission → last bind
  std::uint64_t bound = 0;
  std::uint64_t bind_conflicts = 0;
  std::uint64_t guard_rejections = 0;
  std::uint64_t steal_cycles = 0;

  [[nodiscard]] double median_us() const {
    return cycle_us.empty() ? 0.0 : cycle_us[cycle_us.size() / 2];
  }
  [[nodiscard]] double max_us() const {
    return cycle_us.empty() ? 0.0 : cycle_us.back();
  }
};

/// Drains `pods` EPC pods over pods / kPodsPerNode SGX nodes, each sized
/// for exactly kPodsPerNode of them, with a `schedulers`-replica
/// shared-state fleet of orch::Scheduler instances. The replicas run one
/// after another on this thread: each round advances the virtual clock by
/// one scheduling period, then calls run_once on every replica in shard
/// order. Monitoring is off, so placement rests on the device plugin's
/// request accounting.
SharedMeasurement run_shared_bench(int schedulers, int pods) {
  SharedMeasurement m;
  m.schedulers = schedulers;
  m.pods = pods;
  m.nodes = pods / kPodsPerNode;

  exp::ClusterConfig config;
  config.machines.clear();
  for (int i = 0; i < m.nodes; ++i) {
    cluster::MachineSpec spec;
    spec.name = "n-" + std::to_string(i);
    spec.cpu_cores = 16;
    spec.memory = 64_GiB;
    spec.epc = sgx::EpcConfig::with_usable(
        Pages{kPodEpc.count() * kPodsPerNode}.as_bytes());
    config.machines.push_back(spec);
  }
  exp::SimulatedCluster cluster{std::move(config)};
  cluster.api().set_event_retention(10000);  // binds must not hoard events
  const std::vector<core::SgxAwareScheduler*> fleet =
      cluster.add_shared_state_fleet(static_cast<std::size_t>(schedulers));
  for (core::SgxAwareScheduler* replica : fleet) replica->stop();
  cluster.api().set_default_scheduler(fleet.front()->name());

  for (int i = 0; i < pods; ++i) {
    cluster::PodBehavior behavior;
    behavior.sgx = true;
    behavior.actual_usage = kPodEpc.as_bytes();
    behavior.duration = Duration::hours(24);
    cluster.api().submit(cluster::make_stressor_pod(
        "p-" + std::to_string(i), {0_B, kPodEpc}, {0_B, kPodEpc}, behavior));
  }

  const TimePoint submitted = cluster.sim().now();
  const Duration period = fleet.front()->period();
  const auto wall_start = std::chrono::steady_clock::now();
  // A round that binds nothing leaves the queue as it found it (bind
  // backoff is off), so it ends the drain.
  std::uint64_t bound_before = 0;
  while (m.bound < static_cast<std::uint64_t>(pods)) {
    cluster.sim().run_until(cluster.sim().now() + period);
    for (core::SgxAwareScheduler* replica : fleet) {
      const auto start = std::chrono::steady_clock::now();
      m.bound += replica->run_once();
      const auto stop = std::chrono::steady_clock::now();
      m.cycle_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
    }
    if (m.bound == bound_before) break;
    bound_before = m.bound;
    m.drain_sim_s = (cluster.sim().now() - submitted).as_seconds();
  }
  m.drain_wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  for (const core::SgxAwareScheduler* replica : fleet) {
    m.bind_conflicts += replica->bind_conflicts();
    m.guard_rejections += replica->guard_rejections();
    m.steal_cycles += replica->steal_cycles();
  }
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
  out << "  ],\n  \"shared_state_fleet\": \"SimulatedCluster::"
         "add_shared_state_fleet replicas run one after another on one "
         "thread; drain_wall_s and *_cycle_us are host wall time, "
         "sim_drain_s is simulated time\",\n"
      << "  \"shared_state\": [\n";
  for (std::size_t i = 0; i < shared.size(); ++i) {
    const SharedMeasurement& m = shared[i];
    out << "    {\"schedulers\": " << m.schedulers << ", \"pods\": " << m.pods
        << ", \"nodes\": " << m.nodes << ", \"cycles\": " << m.cycle_us.size()
        << ", \"drain_wall_s\": " << m.drain_wall_s
        << ", \"median_cycle_us\": " << m.median_us()
        << ", \"max_cycle_us\": " << m.max_us()
        << ", \"sim_drain_s\": " << m.drain_sim_s
        << ", \"bound\": " << m.bound
        << ", \"bind_conflicts\": " << m.bind_conflicts
        << ", \"guard_rejections\": " << m.guard_rejections
        << ", \"steal_cycles\": " << m.steal_cycles << "}"
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

  constexpr int kSharedPods[] = {10000, 100000};
  constexpr int kSharedSchedulers[] = {1, 2, 4, 8};
  std::vector<SharedMeasurement> shared;
  for (const int pods : kSharedPods) {
    for (const int schedulers : kSharedSchedulers) {
      shared.push_back(run_shared_bench(schedulers, pods));
    }
  }

  Table shared_table({"schedulers", "pods", "nodes", "drain [s]",
                      "median cycle [us]", "max cycle [us]",
                      "sim drain [s]", "conflicts", "guard rej.",
                      "steals"});
  for (const SharedMeasurement& m : shared) {
    shared_table.add_row(
        {std::to_string(m.schedulers), std::to_string(m.pods),
         std::to_string(m.nodes), fmt_double(m.drain_wall_s, 3),
         fmt_double(m.median_us(), 1), fmt_double(m.max_us(), 1),
         fmt_double(m.drain_sim_s, 0), std::to_string(m.bind_conflicts),
         std::to_string(m.guard_rejections), std::to_string(m.steal_cycles)});
  }
  std::cout << "\nshared-state fleet (host wall time; sim drain is simulated "
               "time)\n";
  shared_table.print(std::cout);

  write_json(results, shared, "BENCH_scheduler.json");
  std::cout << "\nwrote BENCH_scheduler.json\n";

  // Every fleet must drain its whole queue: a pod left unbound means the
  // bind path lost it.
  for (const SharedMeasurement& m : shared) {
    if (m.bound != static_cast<std::uint64_t>(m.pods)) {
      std::cerr << "error: shared-state fleet of " << m.schedulers
                << " replicas bound " << m.bound << " of " << m.pods
                << " pods\n";
      return 1;
    }
  }
  return 0;
}
