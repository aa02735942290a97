// Watch-driven completion check shared by the replay and quiescence loops:
// "is every pod terminal yet?" answered from a counter an ApiServer watch
// keeps current, instead of a scan of the whole pod store per check.
#pragma once

#include <cstddef>
#include <set>

#include "cluster/pod.hpp"
#include "orch/api_server.hpp"

namespace sgxo::exp {

/// Counts pods that reached a terminal phase (Succeeded or Failed),
/// optionally only those named in `pods`. Seeded by one scan of the store
/// at construction, then bumped by one watch callback per terminal
/// transition. The ApiServer reports each pod's termination exactly once,
/// so the count needs no per-pod bookkeeping. The watch is removed on
/// destruction.
class TerminalPodCounter {
 public:
  /// `pods` (when given) must outlive the counter.
  explicit TerminalPodCounter(orch::ApiServer& api,
                              const std::set<cluster::PodName>* pods = nullptr);
  ~TerminalPodCounter();

  TerminalPodCounter(const TerminalPodCounter&) = delete;
  TerminalPodCounter& operator=(const TerminalPodCounter&) = delete;

  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  [[nodiscard]] bool counts(const cluster::PodName& pod) const {
    return pods_ == nullptr || pods_->count(pod) > 0;
  }

  orch::ApiServer& api_;
  const std::set<cluster::PodName>* pods_;
  std::size_t count_ = 0;
  orch::ApiServer::WatchId watch_;
};

}  // namespace sgxo::exp
