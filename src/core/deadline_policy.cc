#include "core/deadline_policy.h"

#include <stdexcept>

namespace tifl::core {

DeadlinePolicy::DeadlinePolicy(const ProfileResult& profile,
                               double deadline_seconds,
                               std::size_t clients_per_round)
    : clients_per_round_(clients_per_round) {
  if (deadline_seconds <= 0.0) {
    throw std::invalid_argument("DeadlinePolicy: deadline must be > 0");
  }
  for (std::size_t c = 0; c < profile.mean_latency.size(); ++c) {
    if (!profile.dropout[c] &&
        profile.mean_latency[c] <= deadline_seconds) {
      eligible_.push_back(c);
    }
  }
  if (eligible_.size() < clients_per_round_) {
    throw std::invalid_argument(
        "DeadlinePolicy: fewer eligible clients than clients_per_round");
  }
}

fl::Selection DeadlinePolicy::select(const fl::SelectionContext& context) {
  return fl::Selection{
      .clients = fl::Candidates(eligible_).draw(clients_per_round_,
                                                context.stream()),
      .tier = -1,
      .aggregate_count = 0};
}

}  // namespace tifl::core
