#include "exp/completion.hpp"

namespace sgxo::exp {

TerminalPodCounter::TerminalPodCounter(orch::ApiServer& api,
                                       const std::set<cluster::PodName>* pods)
    : api_(api), pods_(pods) {
  for (const orch::PodRecord* record : api_.all_pods()) {
    if (cluster::is_terminal(record->phase) && counts(record->spec.name)) {
      ++count_;
    }
  }
  watch_ = api_.watch_pods([this](const orch::ApiServer::PodUpdate& update) {
    if (cluster::is_terminal(update.phase) && counts(update.pod)) ++count_;
  });
}

TerminalPodCounter::~TerminalPodCounter() { api_.unwatch(watch_); }

}  // namespace sgxo::exp
