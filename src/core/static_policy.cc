#include "core/static_policy.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/stats.h"

namespace tifl::core {

StaticTierPolicy::StaticTierPolicy(const TierInfo& tiers,
                                   std::vector<double> tier_probs,
                                   std::size_t clients_per_round,
                                   std::string policy_name)
    : members_(tiers.members),
      probs_(std::move(tier_probs)),
      clients_per_round_(clients_per_round),
      name_(std::move(policy_name)) {
  if (probs_.size() != members_.size()) {
    throw std::invalid_argument(
        "StaticTierPolicy: probability/tier count mismatch");
  }
  if (clients_per_round_ == 0) {
    throw std::invalid_argument("StaticTierPolicy: clients_per_round == 0");
  }
  // Zero out tiers that cannot fill a round, then renormalize.
  bool any = false;
  for (std::size_t t = 0; t < members_.size(); ++t) {
    if (members_[t].size() < clients_per_round_) probs_[t] = 0.0;
    any = any || probs_[t] > 0.0;
  }
  if (!any) {
    throw std::invalid_argument(
        "StaticTierPolicy: no tier is both eligible and has probability");
  }
  probs_ = util::normalized(std::move(probs_));
}

fl::Selection StaticTierPolicy::select(const fl::SelectionContext& context) {
  if (context.tier >= 0) {
    // Async per-tier cadence: scale the dispatching tier's sample count
    // by its probability share (uniform probabilities -> the engine's
    // default |C|); zero-probability tiers park.
    const std::size_t tier = static_cast<std::size_t>(context.tier);
    if (tier >= probs_.size()) {
      throw std::invalid_argument("StaticTierPolicy: tier out of range");
    }
    const double share = probs_[tier] * static_cast<double>(probs_.size()) *
                         static_cast<double>(clients_per_round_);
    const std::size_t count =
        std::min(static_cast<std::size_t>(std::llround(share)),
                 context.candidates.size());
    return fl::Selection{
        .clients = context.candidates.draw(count, context.stream()),
        .tier = context.tier,
        .aggregate_count = 0};
  }

  const std::size_t tier = context.stream().weighted_index(probs_);
  return fl::Selection{
      .clients = fl::Candidates(members_[tier])
                     .draw(clients_per_round_, context.stream()),
      .tier = static_cast<int>(tier),
      .aggregate_count = 0};
}

std::vector<double> table1_probs(const std::string& name,
                                 std::size_t num_tiers) {
  if (num_tiers == 0) {
    throw std::invalid_argument("table1_probs: num_tiers == 0");
  }
  std::vector<double> probs(num_tiers, 0.0);
  if (name == "slow") {
    probs.back() = 1.0;
  } else if (name == "uniform") {
    std::fill(probs.begin(), probs.end(), 1.0 / static_cast<double>(num_tiers));
  } else if (name == "random") {
    // Table 1: 0.7, 0.1, 0.1, 0.05, 0.05 (fast tier prioritized).
    if (num_tiers != 5) {
      throw std::invalid_argument("table1_probs: 'random' is a 5-tier preset");
    }
    probs = {0.7, 0.1, 0.1, 0.05, 0.05};
  } else if (name == "fast") {
    probs.front() = 1.0;
  } else if (name == "fast1" || name == "fast2" || name == "fast3") {
    // MNIST/FMNIST sensitivity presets: slowest tier gets 0.1 / 0.05 / 0,
    // all other tiers share the rest equally.
    const double slow_prob =
        name == "fast1" ? 0.1 : (name == "fast2" ? 0.05 : 0.0);
    const double rest = (1.0 - slow_prob) / static_cast<double>(num_tiers - 1);
    std::fill(probs.begin(), probs.end() - 1, rest);
    probs.back() = slow_prob;
  } else {
    throw std::invalid_argument(
        "table1_probs: unknown policy '" + name +
        "' (valid: slow, uniform, random, fast, fast1, fast2, fast3)");
  }
  return probs;
}

}  // namespace tifl::core
