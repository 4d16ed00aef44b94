#include "fl/evaluation.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tifl::fl {
namespace {

// Scores `indices` the way the chunk loop below scores a dataset of those
// rows: per `chunk`-sized step hits / n * n, then / size.  Summing the
// hits first would round differently (1.0 / 49 * 49 != 1.0 in double).
double subset_accuracy(const std::vector<std::uint8_t>& hits,
                       const std::vector<std::size_t>& indices,
                       std::size_t chunk) {
  if (indices.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t start = 0; start < indices.size(); start += chunk) {
    const std::size_t end = std::min(indices.size(), start + chunk);
    std::size_t step_hits = 0;
    for (std::size_t i = start; i < end; ++i) {
      step_hits += hits.at(indices[i]);
    }
    const double n = static_cast<double>(end - start);
    total += static_cast<double>(step_hits) / n * n;
  }
  return total / static_cast<double>(indices.size());
}

}  // namespace

Evaluation evaluate_weights(nn::Sequential& model,
                            std::span<const float> weights,
                            const data::Dataset& dataset, std::size_t chunk,
                            std::span<const std::vector<std::size_t>> subsets) {
  if (chunk == 0) {
    throw std::invalid_argument("evaluate_weights: zero chunk size");
  }
  model.set_weights(weights);

  // Hit flags are only kept when some subset will read them.
  std::vector<std::uint8_t> hits(subsets.empty() ? 0 : dataset.size());
  Evaluation total;
  std::size_t seen = 0;
  std::vector<std::size_t> indices;
  indices.reserve(chunk);
  for (std::size_t start = 0; start < dataset.size(); start += chunk) {
    const std::size_t end = std::min(dataset.size(), start + chunk);
    indices.clear();
    for (std::size_t i = start; i < end; ++i) indices.push_back(i);
    const data::Dataset::Batch batch = dataset.gather(indices);
    const std::size_t n = end - start;
    const nn::LossResult r = model.evaluate(
        batch.x, batch.y,
        hits.empty() ? std::span<std::uint8_t>{}
                     : std::span<std::uint8_t>(hits).subspan(start, n));
    total.loss += r.loss * static_cast<double>(n);
    total.accuracy += r.accuracy * static_cast<double>(n);
    seen += n;
  }
  if (seen > 0) {
    total.loss /= static_cast<double>(seen);
    total.accuracy /= static_cast<double>(seen);
  }
  total.subset_accuracies.reserve(subsets.size());
  for (const std::vector<std::size_t>& subset : subsets) {
    total.subset_accuracies.push_back(subset_accuracy(hits, subset, chunk));
  }
  return total;
}

void check_tier_eval_indices(
    const char* who, std::span<const std::vector<std::size_t>> indices,
    std::size_t rows) {
  for (std::size_t tier = 0; tier < indices.size(); ++tier) {
    for (const std::size_t index : indices[tier]) {
      if (index >= rows) {
        throw std::invalid_argument(
            std::string(who) + ": tier " + std::to_string(tier) +
            " eval index " + std::to_string(index) + " is past the " +
            std::to_string(rows) + "-row test set");
      }
    }
  }
}

}  // namespace tifl::fl
