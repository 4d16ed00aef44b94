#include "fl/evaluation.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/phase.h"
#include "obs/trace.h"

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

void VersionRecorder::record(RoundRecord record,
                             std::span<const float> weights,
                             std::int64_t actor, SelectionPolicy* policy,
                             std::size_t staleness) {
  const std::size_t version = rounds->size();
  record.round = version;
  last_evaluated = version % eval_every == 0 || version + 1 == total_updates;
  std::vector<double> tier_accuracies;
  if (last_evaluated) {
    obs::ScopedPhase phase(phases, obs::Phase::kEval);
    Evaluation r = evaluate(weights);
    phase.stop();
    record.global_accuracy = r.accuracy;
    record.global_loss = r.loss;
    tier_accuracies = std::move(r.subset_accuracies);
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(record.virtual_time, category, "eval", actor,
                 {obs::field("version", version),
                  obs::field("accuracy", r.accuracy)});
    }
  } else if (!rounds->empty()) {
    record.global_accuracy = rounds->back().global_accuracy;
    record.global_loss = rounds->back().global_loss;
  }
  if (policy != nullptr) {
    policy->observe({.round = version,
                     .virtual_time = record.virtual_time,
                     .global_accuracy = record.global_accuracy,
                     .global_loss = record.global_loss,
                     .tier_accuracies = std::move(tier_accuracies),
                     .submitting_tier = record.selected_tier,
                     .staleness = staleness});
  }
  rounds->push_back(std::move(record));
}

void VersionRecorder::finish(std::span<const float> weights) {
  if (rounds->empty() || last_evaluated) return;
  obs::ScopedPhase phase(phases, obs::Phase::kEval);
  const Evaluation r = evaluate(weights);
  rounds->back().global_accuracy = r.accuracy;
  rounds->back().global_loss = r.loss;
}

}  // namespace tifl::fl
