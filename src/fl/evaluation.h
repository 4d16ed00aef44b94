// Model evaluation shared by the synchronous and asynchronous engines:
// the loss and accuracy of `weights` on a test set, plus the accuracies of
// index subsets of it (Alg. 2's per-tier TestData_t) from the same pass.
//
// Where it runs: the engines call fl::CohortTrainer::evaluate, which
// hands its scratch models (one per participant of its thread pool) and
// the pool to evaluate_weights.  Inside one parallel_for region every
// participant claims 16-row blocks of the test set from a shared counter,
// loads the weights once, and runs each block's forward pass with its
// GEMMs serial.  A block writes each of its rows' hit flag and label
// log-probability into row-indexed arrays; blocks cover disjoint rows, so
// no result depends on which participant ran which block.
//
// The caller's thread then folds those arrays in `chunk`-sized steps:
// per step the loss from 0.0 minus each log-probability, then / n * n,
// and hits / n * n; the totals are divided by the row count.  A subset is
// scored the same way from the hit flags (every row is evaluated once,
// however many subsets hold it).  Those are the doubles a serial loop
// over `chunk`-row mini-batches on one model gives, because a row's
// logits do not depend on the other rows of its call: the GEMM paths sum
// each element the same way at any row count for K <= kKC (tests pin
// it), and a conv layer puts images on the GEMM's N side.  A layer with
// K > kKC keeps that property only while no call is short enough for the
// small or the stream GEMM path (m <= kStreamMaxM = 12 rows), which sum
// all of K at once instead of per kKC block.  So a block is never shorter
// than min(16, rows): the remainder rows join the last block.  Such a
// layer's value can still differ from a serial loop whose own chunks (or
// tail) were that short; that loop's loss depended on its chunk size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "fl/metrics.h"
#include "fl/policy.h"
#include "nn/sequential.h"

namespace tifl::obs {
class PhaseTimer;
}
namespace tifl::util {
class ThreadPool;
}

namespace tifl::fl {

// The engines' fold step: evaluate_weights' `chunk` in every engine, so
// the loss and hit counts are summed per 512 rows, as a serial loop over
// 512-row mini-batches would.  Run fingerprints mix it in.
inline constexpr std::size_t kEvalChunk = 512;

struct Evaluation {
  double loss = 0.0;      // sample-weighted mean over `dataset`
  double accuracy = 0.0;
  // One per requested subset, in order; 0.0 for an empty subset.
  std::vector<double> subset_accuracies;
};

// One entry per row of the evaluated dataset.
struct RowScores {
  std::vector<std::uint8_t> hits;  // 1 where the argmax is the label
  std::vector<float> log_probs;    // log(max(p_label, 1e-12f))
};

// The block pass: scores every row of `dataset` under `weights`, with one
// participant per model of `models` (at most one per block) on `pool`;
// the models' own weights do not matter.  A one-block set, or a
// one-worker pool, runs on the calling thread and lets its kernels fan
// out.  An empty `dataset` opens no region.  If blocks throw, every block
// still runs and the lowest throwing block's exception is rethrown.
// Throws std::invalid_argument for no models and a non-empty `dataset`.
RowScores score_rows(std::span<nn::Sequential> models, util::ThreadPool& pool,
                     std::span<const float> weights,
                     const data::Dataset& dataset);

// score_rows, then the fold: loss and accuracy over `dataset` (zeros when
// it is empty) and one accuracy per subset.  Throws std::invalid_argument
// for a zero `chunk`.  `subsets` hold row indices into `dataset`, in any
// order, duplicates allowed; an index past the end throws
// std::out_of_range.
Evaluation evaluate_weights(
    std::span<nn::Sequential> models, util::ThreadPool& pool,
    std::span<const float> weights, const data::Dataset& dataset,
    std::size_t chunk, std::span<const std::vector<std::size_t>> subsets = {});

// Set-time check for the engines' per-tier index lists: throws
// std::invalid_argument, naming `who`, the tier and the index, for an
// index >= `rows` (the test set's size).
void check_tier_eval_indices(
    const char* who, std::span<const std::vector<std::size_t>> indices,
    std::size_t rows);

// record() appends `record` as version rounds->size(): evaluated on the
// cadence (v % eval_every == 0 or the last of total_updates) with the
// instant traced on `actor`, else carrying the previous accuracy forward;
// `policy`, when given, observes the version first.  finish() re-evaluates
// a last record left with a carried-forward accuracy and traces that
// instant on `actor`.  It does not feed the policy again: the policy
// observed that version when it was recorded, and the run is over.
struct VersionRecorder {
  std::vector<RoundRecord>* rounds;
  std::size_t eval_every;
  std::size_t total_updates;
  std::string_view category;  // of the eval trace instants
  std::function<Evaluation(std::span<const float>)> evaluate;
  obs::PhaseTimer* phases;
  bool last_evaluated = false;  // snapshots store it

  void record(RoundRecord record, std::span<const float> weights,
              std::int64_t actor, SelectionPolicy* policy = nullptr,
              std::size_t staleness = 0);
  void finish(std::span<const float> weights, std::int64_t actor);
  // The last record's submitting tier: the flat engines' finish() actor.
  std::int64_t last_tier() const {
    return rounds->empty() ? 0 : rounds->back().selected_tier;
  }
};

}  // namespace tifl::fl
