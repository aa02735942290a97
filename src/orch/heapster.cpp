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
  // One write_many per node. Samples borrow their tag strings from the
  // kubelet's pod names and the node name, and their tag arrays from
  // `tags`, which is reserved up front so it never reallocates under
  // them; only a delayed sample copies its pod name.
  std::vector<std::array<tsdb::TagView, 3>> tags;
  std::vector<tsdb::Database::Sample> batch;
  for (const ApiServer::NodeEntry& entry : api_->all_nodes()) {
    const cluster::NodeName& node = entry.node->name();
    const cluster::Kubelet& kubelet = *entry.kubelet;
    tags.clear();
    tags.reserve(kubelet.active_pod_count());
    batch.clear();
    kubelet.for_each_pod_stat([&](const cluster::PodName& pod,
                                  Bytes memory_usage) {
      if (drop_samples_) {
        ++dropped_;
        return;
      }
      const double value = static_cast<double>(memory_usage.count());
      if (sample_delay_ > Duration{}) {
        // Delayed delivery keeps the original sample timestamp, so the
        // point lands out of order — exactly what a congested collector
        // produces.
        ++delayed_;
        sim_->schedule_after(sample_delay_, [this, pod, node, now, value] {
          deliver(pod, node, now, value);
        });
        return;
      }
      tags.push_back(pod_tags(pod, node));
      batch.push_back({kMemoryMeasurement, tags.back(), now, value});
    });
    if (!batch.empty()) db_->write_many(batch);
  }
  // Retention plus chunk compaction ride on the scrape cadence — the
  // simulated stand-in for a background maintenance thread.
  db_->maintain(now, retention_);
}

}  // namespace sgxo::orch
