#include "core/adaptive_policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/log.h"
#include "util/stats.h"

namespace tifl::core {

std::vector<double> default_credits(std::size_t rounds,
                                    std::size_t num_tiers) {
  std::vector<double> credits(num_tiers);
  double budget = static_cast<double>(rounds);
  for (std::size_t t = 0; t < num_tiers; ++t) {
    credits[t] = std::ceil(budget);
    budget /= 2.0;
  }
  return credits;
}

AdaptiveTierPolicy::AdaptiveTierPolicy(const TierInfo& tiers,
                                       AdaptiveConfig config,
                                       std::size_t total_rounds)
    : members_(tiers.members), config_(config) {
  const std::size_t T = members_.size();
  if (T == 0) throw std::invalid_argument("AdaptiveTierPolicy: no tiers");
  if (config_.interval == 0) {
    throw std::invalid_argument("AdaptiveTierPolicy: interval must be >= 1");
  }
  probs_.assign(T, 1.0 / static_cast<double>(T));  // Alg. 2 line 1
  credits_ = config_.credits.empty() ? default_credits(total_rounds, T)
                                     : config_.credits;
  if (credits_.size() != T) {
    throw std::invalid_argument("AdaptiveTierPolicy: credits size mismatch");
  }
}

bool AdaptiveTierPolicy::tier_eligible(std::size_t t) const {
  // Sync rounds must fill |C| slots from one tier (§4.3's n_j > |C|); an
  // async tier round simply caps at the live member count.
  return async_mode_ ? !members_[t].empty()
                     : members_[t].size() >= config_.clients_per_round;
}

void AdaptiveTierPolicy::change_probs() {
  // NewProbs = ChangeProbs(A_1^r .. A_T^r): lower accuracy -> higher
  // selection probability, restricted to tiers that still have credits
  // and enough members.
  const std::vector<double>& latest = accuracy_history_.back();
  const std::size_t T = members_.size();
  std::vector<double> weight(T, 0.0);

  if (config_.prob_rule == AdaptiveConfig::ProbRule::kDeficit) {
    double max_acc = 0.0;
    for (std::size_t t = 0; t < T; ++t) max_acc = std::max(max_acc, latest[t]);
    for (std::size_t t = 0; t < T; ++t) {
      if (credits_[t] <= 0.0 || !tier_eligible(t)) continue;
      weight[t] = (max_acc - latest[t]) + config_.deficit_epsilon;
    }
  } else {
    // Rank rule: sort by accuracy ascending; worst tier gets weight T,
    // best gets 1.
    std::vector<std::size_t> order(T);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&latest](std::size_t a, std::size_t b) {
                       return latest[a] < latest[b];
                     });
    for (std::size_t rank = 0; rank < T; ++rank) {
      const std::size_t t = order[rank];
      if (credits_[t] <= 0.0 || !tier_eligible(t)) continue;
      weight[t] = static_cast<double>(T - rank);
    }
  }

  const double total = std::accumulate(weight.begin(), weight.end(), 0.0);
  if (total > 0.0) {
    for (double& w : weight) w /= total;
    probs_ = std::move(weight);
    ++prob_changes_;
  }
}

void AdaptiveTierPolicy::maybe_change_probs(std::size_t round,
                                            std::size_t reference_tier) {
  // Alg. 2 lines 3-7: every I rounds, re-derive probabilities if the
  // reference tier's accuracy stalled relative to I rounds ago.  The
  // async engine asks once per tier round, so guard to one stall check
  // per global version.
  if (round % config_.interval != 0 || round < config_.interval ||
      accuracy_history_.size() < config_.interval + 1) {
    return;
  }
  if (round == last_stall_check_) return;
  last_stall_check_ = round;
  const std::vector<double>& now = accuracy_history_.back();
  const std::vector<double>& before =
      accuracy_history_[accuracy_history_.size() - 1 - config_.interval];
  if (now[reference_tier] <= before[reference_tier]) {
    change_probs();
  }
}

fl::Selection AdaptiveTierPolicy::select(const fl::SelectionContext& context) {
  // Per-call, not sticky: a policy instance that served an async run must
  // apply the strict sync eligibility again when a sync engine drives it.
  async_mode_ = context.tier >= 0;
  if (context.tier >= 0) return select_tier_round(context);

  maybe_change_probs(context.round, current_tier_);

  // Alg. 2 lines 8-14: draw tiers until one with credits remains.
  const std::size_t T = members_.size();
  std::vector<double> effective = probs_;
  for (std::size_t t = 0; t < T; ++t) {
    if (credits_[t] <= 0.0 || !tier_eligible(t)) effective[t] = 0.0;
  }
  double mass = std::accumulate(effective.begin(), effective.end(), 0.0);
  if (mass <= 0.0) {
    // Custom credit schedules can exhaust every tier; restore liveness.
    util::log_warn("AdaptiveTierPolicy: all tier credits exhausted; "
                   "granting one credit per eligible tier");
    for (std::size_t t = 0; t < T; ++t) {
      if (tier_eligible(t)) {
        credits_[t] = 1.0;
        effective[t] = 1.0;
      }
    }
    mass = std::accumulate(effective.begin(), effective.end(), 0.0);
    if (mass <= 0.0) {
      throw std::logic_error("AdaptiveTierPolicy: no eligible tier");
    }
  }

  current_tier_ = context.stream().weighted_index(effective);
  credits_[current_tier_] -= 1.0;  // Alg. 2 line 11

  return fl::Selection{
      .clients = fl::Candidates(members_[current_tier_])
                     .draw(config_.clients_per_round, context.stream()),
      .tier = static_cast<int>(current_tier_),
      .aggregate_count = 0};
}

// Async per-tier cadence: the engine fixed the tier; Alg. 2's
// probabilities scale that tier's share of the work instead of drawing
// the tier.  round(p_t * T * |C|) members per tier round keeps a
// uniform-probability policy at exactly the engine's default |C|.
fl::Selection AdaptiveTierPolicy::select_tier_round(
    const fl::SelectionContext& context) {
  const std::size_t tier = static_cast<std::size_t>(context.tier);
  if (tier >= members_.size()) {
    throw std::invalid_argument("AdaptiveTierPolicy: tier out of range");
  }
  maybe_change_probs(context.round, tier);
  if (context.candidates.empty()) return {};

  const double share =
      probs_[tier] * static_cast<double>(members_.size()) *
      static_cast<double>(config_.clients_per_round);
  std::size_t count = static_cast<std::size_t>(std::llround(share));
  if (credits_[tier] <= 0.0) {
    // Out of credits: throttle to a minimal presence rather than a hard
    // stop — async tiers do not block each other, so the time cost Alg. 2
    // guards against is per-tier work, not round latency.
    count = std::min<std::size_t>(count, 1);
  }
  count = std::min(count, context.candidates.size());
  if (count == 0) return {};  // parked; the engine retries next version

  if (credits_[tier] > 0.0) credits_[tier] -= 1.0;
  return fl::Selection{
      .clients = context.candidates.draw(count, context.stream()),
      .tier = context.tier,
      .aggregate_count = 0};
}

void AdaptiveTierPolicy::observe(const fl::RoundFeedback& feedback) {
  // Alg. 2 lines 22-24: record A_t^r for every tier.  If the engine did
  // not evaluate tiers this round, carry the previous values forward.
  if (!feedback.tier_accuracies.empty()) {
    if (feedback.tier_accuracies.size() != members_.size()) {
      throw std::invalid_argument(
          "AdaptiveTierPolicy: tier accuracy count mismatch");
    }
    accuracy_history_.push_back(feedback.tier_accuracies);
  } else if (!accuracy_history_.empty()) {
    accuracy_history_.push_back(accuracy_history_.back());
  } else {
    accuracy_history_.emplace_back(members_.size(), 0.0);
  }
}

void AdaptiveTierPolicy::on_join(std::size_t client, std::size_t tier) {
  if (tier >= members_.size()) return;
  members_[tier].push_back(client);
}

void AdaptiveTierPolicy::on_leave(std::size_t client) {
  for (std::vector<std::size_t>& tier : members_) {
    const auto it = std::find(tier.begin(), tier.end(), client);
    if (it != tier.end()) {
      tier.erase(it);
      return;
    }
  }
}

void AdaptiveTierPolicy::on_retier(
    std::span<const std::vector<std::size_t>> members) {
  if (members.size() != members_.size()) {
    throw std::invalid_argument(
        "AdaptiveTierPolicy: re-tiering changed the tier count");
  }
  members_.assign(members.begin(), members.end());
}

void AdaptiveTierPolicy::save_state(util::ByteSink& sink) const {
  sink.put_u64(members_.size());
  for (const std::vector<std::size_t>& tier : members_) {
    sink.put_size_vec(tier);
  }
  sink.put_f64_vec(probs_);
  sink.put_f64_vec(credits_);
  sink.put_u64(accuracy_history_.size());
  for (const std::vector<double>& row : accuracy_history_) {
    sink.put_f64_vec(row);
  }
  sink.put_u64(current_tier_);
  sink.put_u64(prob_changes_);
  sink.put_bool(async_mode_);
  sink.put_u64(last_stall_check_);
}

void AdaptiveTierPolicy::restore_state(util::ByteSource& source) {
  const std::size_t tiers = source.checked_count(source.get_u64(), 8);
  if (tiers != members_.size()) {
    throw std::runtime_error(
        "AdaptiveTierPolicy: snapshot tier count mismatch");
  }
  for (std::vector<std::size_t>& tier : members_) {
    tier = source.get_size_vec();
  }
  probs_ = source.get_f64_vec();
  credits_ = source.get_f64_vec();
  if (probs_.size() != tiers || credits_.size() != tiers) {
    throw std::runtime_error("AdaptiveTierPolicy: snapshot vector mismatch");
  }
  const std::size_t history = source.checked_count(source.get_u64(), 8);
  accuracy_history_.clear();
  accuracy_history_.reserve(history);
  for (std::size_t r = 0; r < history; ++r) {
    accuracy_history_.push_back(source.get_f64_vec());
  }
  current_tier_ = source.get_u64();
  prob_changes_ = source.get_u64();
  async_mode_ = source.get_bool();
  last_stall_check_ = source.get_u64();
}

}  // namespace tifl::core
