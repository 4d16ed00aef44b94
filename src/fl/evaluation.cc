#include "fl/evaluation.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/phase.h"
#include "obs/trace.h"
#include "tensor/pack.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

// Rows per block of the parallel pass: the smallest power of two above
// kStreamMaxM (see evaluation.h).  Smaller blocks would send a K > kKC
// dense layer to the stream path; larger ones hold more activations per
// participant.
constexpr std::size_t kBlockRows = 16;
static_assert(kBlockRows > static_cast<std::size_t>(tensor::kStreamMaxM));

// Scores `indices` the way the fold below scores a dataset of those rows:
// per `chunk`-sized step hits / n * n, then / size.  Summing the
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

// Evaluates `weights` into `record` (its round set) and traces the
// instant on `actor`; returns the tier accuracies.
std::vector<double> evaluate_into(const VersionRecorder& recorder,
                                  RoundRecord& record,
                                  std::span<const float> weights,
                                  std::int64_t actor) {
  obs::ScopedPhase phase(recorder.phases, obs::Phase::kEval);
  Evaluation r = recorder.evaluate(weights);
  phase.stop();
  record.global_accuracy = r.accuracy;
  record.global_loss = r.loss;
  if (obs::Tracer* t = obs::tracer()) {
    t->instant(record.virtual_time, recorder.category, "eval", actor,
               {obs::field("version", record.round),
                obs::field("accuracy", r.accuracy)});
  }
  return std::move(r.subset_accuracies);
}

}  // namespace

RowScores score_rows(std::span<nn::Sequential> models, util::ThreadPool& pool,
                     std::span<const float> weights,
                     const data::Dataset& dataset) {
  const std::size_t rows = dataset.size();
  RowScores scores{std::vector<std::uint8_t>(rows), std::vector<float>(rows)};
  if (rows == 0) return scores;
  if (models.empty()) throw std::invalid_argument("score_rows: no models");
  // Remainder rows join the last block, so none is shorter than
  // min(kBlockRows, rows).
  const std::size_t blocks = std::max<std::size_t>(1, rows / kBlockRows);
  std::vector<std::exception_ptr> errors(blocks);
  std::atomic<std::size_t> next{0};
  pool.parallel_for(0, std::min(blocks, models.size()), [&](std::size_t p) {
    bool loaded = false;
    std::vector<std::size_t> indices;
    for (std::size_t b = next.fetch_add(1); b < blocks; b = next.fetch_add(1)) {
      const std::size_t start = b * kBlockRows;
      const std::size_t n = b + 1 == blocks ? rows - start : kBlockRows;
      try {
        if (!loaded) {
          models[p].set_weights(weights);
          loaded = true;
        }
        indices.resize(n);
        std::iota(indices.begin(), indices.end(), start);
        const data::Dataset::Batch batch = dataset.gather(indices);
        models[p].evaluate(
            batch.x, batch.y,
            std::span<std::uint8_t>(scores.hits).subspan(start, n),
            std::span<float>(scores.log_probs).subspan(start, n));
      } catch (...) {
        errors[b] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return scores;
}

Evaluation evaluate_weights(std::span<nn::Sequential> models,
                            util::ThreadPool& pool,
                            std::span<const float> weights,
                            const data::Dataset& dataset, std::size_t chunk,
                            std::span<const std::vector<std::size_t>> subsets) {
  if (chunk == 0) {
    throw std::invalid_argument("evaluate_weights: zero chunk size");
  }
  const RowScores scores = score_rows(models, pool, weights, dataset);
  const std::size_t rows = dataset.size();

  // Per chunk, the loss summed from 0.0 and hits / n, each times n: what
  // a serial loop over `chunk`-row mini-batches adds up.
  Evaluation total;
  for (std::size_t start = 0; start < rows; start += chunk) {
    const std::size_t end = std::min(rows, start + chunk);
    const double n = static_cast<double>(end - start);
    double loss = 0.0;
    std::size_t step_hits = 0;
    for (std::size_t i = start; i < end; ++i) {
      loss -= scores.log_probs[i];
      step_hits += scores.hits[i];
    }
    total.loss += loss / n * n;
    total.accuracy += static_cast<double>(step_hits) / n * n;
  }
  if (rows > 0) {
    total.loss /= static_cast<double>(rows);
    total.accuracy /= static_cast<double>(rows);
  }
  total.subset_accuracies.reserve(subsets.size());
  for (const std::vector<std::size_t>& subset : subsets) {
    total.subset_accuracies.push_back(
        subset_accuracy(scores.hits, subset, chunk));
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
    tier_accuracies = evaluate_into(*this, record, weights, actor);
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

void VersionRecorder::finish(std::span<const float> weights,
                             std::int64_t actor) {
  if (rounds->empty() || last_evaluated) return;
  evaluate_into(*this, rounds->back(), weights, actor);
}

}  // namespace tifl::fl
