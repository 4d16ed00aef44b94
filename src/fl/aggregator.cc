#include "fl/aggregator.h"

#include <stdexcept>

namespace tifl::fl {

std::vector<float> fedavg(std::span<const WeightedUpdate> updates) {
  if (updates.empty()) {
    throw std::invalid_argument("fedavg: no updates");
  }
  std::vector<double> acc(updates.front().weights.size(), 0.0);
  double total_weight = 0.0;
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
  if (total_weight <= 0.0) {
    throw std::invalid_argument("fedavg: no samples to aggregate");
  }
  std::vector<float> out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i] / total_weight);
  }
  return out;
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
