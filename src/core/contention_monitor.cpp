#include "core/contention_monitor.hpp"

#include <algorithm>
#include <span>

namespace sgxo::core {

bool ContentionReport::any_contended() const {
  return std::any_of(nodes.begin(), nodes.end(),
                     [](const NodeReport& n) { return n.contended; });
}

const ContentionReport::NodeReport* ContentionReport::find(
    const cluster::NodeName& node) const {
  const auto it = std::find_if(
      nodes.begin(), nodes.end(),
      [&](const NodeReport& n) { return n.node == node; });
  return it == nodes.end() ? nullptr : &*it;
}

ContentionMonitor::ContentionMonitor(sim::Simulation& sim,
                                     orch::ApiServer& api,
                                     double pressure_threshold,
                                     int consecutive_samples, Duration period)
    : sim_(&sim),
      api_(&api),
      threshold_(pressure_threshold),
      required_consecutive_(consecutive_samples),
      period_(period) {
  SGXO_CHECK(threshold_ > 0.0 && threshold_ <= 1.0);
  SGXO_CHECK(required_consecutive_ >= 1);
  SGXO_CHECK(period_ > Duration{});
}

ContentionMonitor::~ContentionMonitor() { stop(); }

void ContentionMonitor::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { sample_once(); });
}

void ContentionMonitor::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void ContentionMonitor::sample_once() {
  ++samples_;
  report_ = ContentionReport{};
  report_.sampled_at = sim_->now();

  for (const orch::ApiServer::NodeEntry& entry : api_->all_nodes()) {
    if (!entry.node->has_sgx()) continue;
    const sgx::Driver& driver = *entry.node->driver();

    ContentionReport::NodeReport node_report;
    node_report.node = entry.node->name();
    node_report.pressure = driver.epc().pressure();

    int& streak = hot_streak_[node_report.node];
    streak = node_report.pressure >= threshold_ ? streak + 1 : 0;
    node_report.consecutive_hot = streak;
    node_report.contended = streak >= required_consecutive_;

    if (node_report.contended) {
      // Rank resident pods by EPC footprint via the per-process ioctl,
      // biggest hog first.
      entry.kubelet->for_each_pod_pids(
          [&](const cluster::PodName& pod, std::span<const sgx::Pid> pids) {
            Pages pages{0};
            for (const sgx::Pid pid : pids) {
              pages += driver.process_pages(pid);
            }
            if (pages.count() == 0) return;
            node_report.candidates.push_back(
                ContentionReport::Candidate{pod, pages});
          });
      std::sort(node_report.candidates.begin(), node_report.candidates.end(),
                [](const ContentionReport::Candidate& a,
                   const ContentionReport::Candidate& b) {
                  if (a.pages != b.pages) return a.pages > b.pages;
                  return a.pod < b.pod;
                });
    }
    report_.nodes.push_back(std::move(node_report));
  }
}

}  // namespace sgxo::core
