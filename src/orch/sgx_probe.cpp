#include "orch/sgx_probe.hpp"

#include <array>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace sgxo::orch {
namespace {

/// The probe's tag set of a pod sample, in key order.
std::array<tsdb::TagView, 2> pod_tags(const cluster::PodName& pod,
                                      const cluster::NodeName& node) {
  return {{{"nodename", node}, {"pod_name", pod}}};
}

}  // namespace

SgxProbe::SgxProbe(sim::Simulation& sim, ApiServer::NodeEntry entry,
                   tsdb::Database& db, Duration period)
    : sim_(&sim), entry_(entry), db_(&db), period_(period) {
  SGXO_CHECK_MSG(entry_.node != nullptr && entry_.kubelet != nullptr,
                 "probe needs a complete node entry");
  SGXO_CHECK_MSG(entry_.node->has_sgx(),
                 "SGX probe deployed on a node without SGX");
}

SgxProbe::~SgxProbe() { stop(); }

void SgxProbe::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { probe_once(); });
}

void SgxProbe::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void SgxProbe::deliver(const cluster::PodName& pod, TimePoint sampled,
                       double value) {
  const std::array<tsdb::TagView, 2> tags = pod_tags(pod, node_name());
  const tsdb::Database::Sample sample{kEpcMeasurement, tags, sampled, value};
  db_->write_many({&sample, 1});
}

void SgxProbe::probe_once() {
  ++probes_;
  const TimePoint now = sim_->now();
  const sgx::Driver& driver = *entry_.node->driver();
  // One write_many per probe cycle for every on-time sample of this
  // node. Samples borrow their tag strings from the kubelet's pod names
  // and the node name, and their tag arrays from `tags`, which is
  // reserved up front so it never reallocates under them.
  const cluster::Kubelet& kubelet = *entry_.kubelet;
  std::vector<std::array<tsdb::TagView, 2>> tags;
  tags.reserve(kubelet.active_pod_count());
  std::vector<tsdb::Database::Sample> batch;
  batch.reserve(kubelet.active_pod_count());
  kubelet.for_each_pod_pids([&](const cluster::PodName& pod,
                                std::span<const sgx::Pid> pids) {
    Pages pages{0};
    for (const sgx::Pid pid : pids) pages += driver.process_pages(pid);
    if (drop_samples_) {
      ++dropped_;
      return;
    }
    const double value = static_cast<double>(pages.as_bytes().count());
    if (sample_delay_ > Duration{}) {
      // Late delivery with the original timestamp: the point lands out of
      // order, after the scheduler may already have run without it.
      ++delayed_;
      sim_->schedule_after(sample_delay_, [this, pod, now, value] {
        deliver(pod, now, value);
      });
      return;
    }
    tags.push_back(pod_tags(pod, node_name()));
    batch.push_back({kEpcMeasurement, tags.back(), now, value});
  });
  if (!batch.empty()) db_->write_many(batch);
}

}  // namespace sgxo::orch
