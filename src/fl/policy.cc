#include "fl/policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace tifl::fl {

std::string engine_kind_name(EngineKind kind) {
  return kind == EngineKind::kSync ? "sync" : "async";
}

void check_distinct_clients(const char* engine,
                            std::span<const std::size_t> clients) {
  std::vector<std::size_t> sorted(clients.begin(), clients.end());
  std::sort(sorted.begin(), sorted.end());
  const auto repeat = std::adjacent_find(sorted.begin(), sorted.end());
  if (repeat != sorted.end()) {
    throw std::logic_error(std::string(engine) + ": policy selected client " +
                           std::to_string(*repeat) + " more than once");
  }
}

std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t count,
                                                    util::Rng& rng) {
  if (count > n) {
    throw std::invalid_argument(
        "sample_without_replacement: count exceeds population");
  }
  // Both branches settle the first `count` slots of a partial
  // Fisher-Yates over the identity permutation, consuming exactly one
  // uniform_index(n - i) draw per slot — so the draw sequence and the
  // returned sample are identical regardless of branch.  The sparse
  // branch tracks only displaced slots in a hash map instead of
  // materializing all n ids: O(count) memory and time, which is what lets
  // million-client populations sample cohorts without an O(n) scan per
  // dispatch.  The dense branch stays cheaper when most of the population
  // is drawn anyway.
  if (count * 4 >= n || n < 1024) {
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + rng.uniform_index(n - i);
      std::swap(pool[i], pool[j]);
    }
    pool.resize(count);
    return pool;
  }
  std::vector<std::size_t> sample(count);
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(count * 2);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.uniform_index(n - i);
    const auto it_j = displaced.find(j);
    const std::size_t value_j = it_j == displaced.end() ? j : it_j->second;
    const auto it_i = displaced.find(i);
    const std::size_t value_i = it_i == displaced.end() ? i : it_i->second;
    sample[i] = value_j;
    displaced[j] = value_i;  // virtual swap: slot j now holds slot i's value
  }
  return sample;
}

VanillaPolicy::VanillaPolicy(std::size_t num_clients,
                             std::size_t clients_per_round)
    : num_clients_(num_clients), clients_per_round_(clients_per_round) {
  if (clients_per_round == 0 || clients_per_round > num_clients) {
    throw std::invalid_argument("VanillaPolicy: bad clients_per_round");
  }
}

Selection VanillaPolicy::select(const SelectionContext& context) {
  return Selection{
      .clients = sample_without_replacement(num_clients_, clients_per_round_,
                                            context.stream()),
      .tier = -1,
      .aggregate_count = 0,
  };
}

OverProvisionPolicy::OverProvisionPolicy(std::size_t num_clients,
                                         std::size_t target, double factor)
    : num_clients_(num_clients), target_(target) {
  if (target == 0 || factor < 1.0) {
    throw std::invalid_argument("OverProvisionPolicy: bad target/factor");
  }
  // ceil(factor * target) can exceed the population; clamp so the policy
  // degrades to "select everyone, aggregate the `target` fastest".
  selected_per_round_ = std::min(
      num_clients,
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(target) * factor)));
  if (selected_per_round_ < target_ || target_ > num_clients) {
    throw std::invalid_argument(
        "OverProvisionPolicy: target exceeds population");
  }
}

Selection OverProvisionPolicy::select(const SelectionContext& context) {
  return Selection{
      .clients = sample_without_replacement(num_clients_,
                                            selected_per_round_,
                                            context.stream()),
      .tier = -1,
      .aggregate_count = target_,
  };
}

UniformTierPolicy::UniformTierPolicy(std::size_t clients_per_tier_round)
    : clients_per_tier_round_(clients_per_tier_round) {
  if (clients_per_tier_round == 0) {
    throw std::invalid_argument(
        "UniformTierPolicy: clients_per_tier_round must be > 0");
  }
}

Selection UniformTierPolicy::select(const SelectionContext& context) {
  if (context.tier < 0) {
    throw std::logic_error(
        "UniformTierPolicy: async-only policy asked for an untiered "
        "selection (use it with the async engine)");
  }
  // Bit-for-bit the pre-seam uniform self-sampling: one
  // sample_without_replacement call over the candidate count on the
  // tier's selection stream.
  const std::size_t count =
      std::min(clients_per_tier_round_, context.candidates.size());
  Selection selection;
  selection.tier = context.tier;
  selection.clients.reserve(count);
  for (std::size_t local : sample_without_replacement(
           context.candidates.size(), count, context.stream())) {
    selection.clients.push_back(context.candidates[local]);
  }
  return selection;
}

}  // namespace tifl::fl
