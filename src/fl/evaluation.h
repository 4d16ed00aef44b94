// Chunked model evaluation shared by the synchronous and asynchronous
// engines: load `weights` into a caller-owned scratch model and compute
// sample-weighted mean loss/accuracy over `dataset` in `chunk`-sized
// mini-batches (bounding peak activation memory on large test sets).
//
// The same pass also scores index subsets of `dataset` (Alg. 2's
// per-tier TestData_t), from one hit flag per row: every row is
// evaluated once, however many subsets hold it.  A subset's accuracy is
// bit-identical to evaluating `dataset.subset(indices)` on its own,
// because a row's logits do not depend on the other rows of its batch
// (the GEMM paths sum each element the same way at any row count for
// K <= kKC; tests pin it) and the subset is scored in the same
// chunk-sized steps.  A layer with K > kKC could break that where a
// tail chunk is small enough for the small GEMM path (which sums all of
// K at once, not per kKC block); no benchmark workload or test model
// has such a layer.
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

namespace tifl::fl {

struct Evaluation {
  double loss = 0.0;      // sample-weighted mean over `dataset`
  double accuracy = 0.0;
  // One per requested subset, in order; 0.0 for an empty subset.
  std::vector<double> subset_accuracies;
};

// `subsets` hold row indices into `dataset`, in any order, duplicates
// allowed; an index past the end throws std::out_of_range.
Evaluation evaluate_weights(
    nn::Sequential& model, std::span<const float> weights,
    const data::Dataset& dataset, std::size_t chunk,
    std::span<const std::vector<std::size_t>> subsets = {});

// Set-time check for the engines' per-tier index lists: throws
// std::invalid_argument, naming `who`, the tier and the index, for an
// index >= `rows` (the test set's size).
void check_tier_eval_indices(
    const char* who, std::span<const std::vector<std::size_t>> indices,
    std::size_t rows);

// record() appends `record` as version rounds->size(): evaluated on the
// cadence (v % eval_every == 0 or the last of total_updates) with the
// instant traced on `actor`, else carrying the previous accuracy forward;
// `policy`, when given, observes the version first.  finish() refreshes a
// last record left with a carried-forward accuracy.
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
  void finish(std::span<const float> weights);
};

}  // namespace tifl::fl
