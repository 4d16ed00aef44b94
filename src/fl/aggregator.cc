#include "fl/aggregator.h"

#include <stdexcept>

namespace tifl::fl {

namespace {

// Double-precision weighted accumulation over a range of updates.
// Returns the *sum* (not mean) and total weight so callers can combine.
void accumulate(std::span<const WeightedUpdate> updates,
                std::vector<double>& acc, double& total_weight) {
  for (const WeightedUpdate& update : updates) {
    if (update.weights.size() != acc.size()) {
      throw std::invalid_argument("fedavg: weight vector size mismatch");
    }
    if (update.sample_count <= 0.0) continue;  // empty client contributes 0
    total_weight += update.sample_count;
    const double w = update.sample_count;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += w * static_cast<double>(update.weights[i]);
    }
  }
}

std::vector<float> finalize(const std::vector<double>& acc,
                            double total_weight) {
  if (total_weight <= 0.0) {
    throw std::invalid_argument("fedavg: no samples to aggregate");
  }
  std::vector<float> out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i] / total_weight);
  }
  return out;
}

}  // namespace

std::vector<float> fedavg(std::span<const WeightedUpdate> updates) {
  if (updates.empty()) {
    throw std::invalid_argument("fedavg: no updates");
  }
  std::vector<double> acc(updates.front().weights.size(), 0.0);
  double total_weight = 0.0;
  accumulate(updates, acc, total_weight);
  return finalize(acc, total_weight);
}

std::vector<float> HierarchicalAggregator::aggregate(
    std::span<const WeightedUpdate> updates) const {
  if (updates.empty()) {
    throw std::invalid_argument("HierarchicalAggregator: no updates");
  }
  const std::size_t children = std::max<std::size_t>(1, fanout_);

  // Child aggregators reduce contiguous client groups; the master then
  // combines the per-child sums.  Keeping child results as (sum, weight)
  // pairs rather than means avoids double rounding, which is what makes
  // the tree bit-identical to the flat reduction.
  std::vector<double> master_acc(updates.front().weights.size(), 0.0);
  double master_weight = 0.0;
  const std::size_t per_child = (updates.size() + children - 1) / children;
  for (std::size_t child = 0; child < children; ++child) {
    const std::size_t lo = child * per_child;
    if (lo >= updates.size()) break;
    const std::size_t hi = std::min(updates.size(), lo + per_child);
    accumulate(updates.subspan(lo, hi - lo), master_acc, master_weight);
  }
  return finalize(master_acc, master_weight);
}

std::vector<float> fold_round(const PendingTierRound& round,
                              double* train_loss) {
  std::vector<WeightedUpdate> weighted;
  weighted.reserve(round.updates.size());
  double loss = 0.0;
  for (const LocalUpdate& update : round.updates) {
    weighted.push_back(WeightedUpdate{
        .weights = update.weights,
        .sample_count = static_cast<double>(update.num_samples)});
    loss += update.train_loss;
  }
  if (train_loss != nullptr) {
    *train_loss = loss / static_cast<double>(round.updates.size());
  }
  return fedavg(weighted);
}

}  // namespace tifl::fl
