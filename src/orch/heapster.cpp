#include "orch/heapster.hpp"

#include <array>
#include <vector>

namespace sgxo::orch {
namespace {

/// Heapster's tag set of a pod sample, in key order.
std::array<tsdb::TagView, 3> pod_tags(const cluster::PodName& pod,
                                      const cluster::NodeName& node) {
  return {{{"nodename", node}, {"pod_name", pod}, {"type", "pod"}}};
}

}  // namespace

Heapster::Heapster(sim::Simulation& sim, ApiServer& api, tsdb::Database& db,
                   Duration scrape_period, Duration retention)
    : sim_(&sim),
      api_(&api),
      db_(&db),
      period_(scrape_period),
      retention_(retention) {}

void Heapster::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { scrape_once(); });
}

void Heapster::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void Heapster::deliver(const cluster::PodName& pod,
                       const cluster::NodeName& node, TimePoint sampled,
                       double value) {
  const std::array<tsdb::TagView, 3> tags = pod_tags(pod, node);
  const tsdb::Database::Sample sample{kMemoryMeasurement, tags, sampled,
                                      value};
  db_->write_many({&sample, 1});
}

void Heapster::scrape_once() {
  ++scrapes_;
  const TimePoint now = sim_->now();
  // One batch per node: each TSDB shard lock is taken once per node, not
  // once per pod. Samples borrow their tag strings from `stats` and the
  // node name, and their tag arrays from `tags`, which is reserved up
  // front so it never reallocates under them.
  std::vector<std::array<tsdb::TagView, 3>> tags;
  std::vector<tsdb::Database::Sample> batch;
  for (const ApiServer::NodeEntry& entry : api_->all_nodes()) {
    const cluster::NodeName& node = entry.node->name();
    const std::vector<cluster::Kubelet::PodStats> stats =
        entry.kubelet->pod_stats();
    tags.clear();
    tags.reserve(stats.size());
    batch.clear();
    for (const cluster::Kubelet::PodStats& stat : stats) {
      if (drop_samples_) {
        ++dropped_;
        continue;
      }
      const double value = static_cast<double>(stat.memory_usage.count());
      if (sample_delay_ > Duration{}) {
        // Delayed delivery keeps the original sample timestamp, so the
        // point lands out of order — exactly what a congested collector
        // produces.
        ++delayed_;
        sim_->schedule_after(sample_delay_,
                             [this, pod = stat.pod, node, now, value] {
                               deliver(pod, node, now, value);
                             });
        continue;
      }
      tags.push_back(pod_tags(stat.pod, node));
      batch.push_back({kMemoryMeasurement, tags.back(), now, value});
    }
    if (!batch.empty()) db_->write_many(batch);
  }
  // Retention plus chunk compaction ride on the scrape cadence — the
  // simulated stand-in for a background maintenance thread.
  db_->maintain(now, retention_);
}

}  // namespace sgxo::orch
