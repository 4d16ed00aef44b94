// Chunked evaluation (fl/evaluation.h): chunk-boundary correctness
// against single-shot evaluation, and subset accuracies scored from the
// one pass against evaluating each materialized subset on its own.
#include "fl/evaluation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace tifl::fl {
namespace {

using testing::tiny_data;
using testing::tiny_factory;

TEST(EvaluateWeights, ChunkingsAgreeWithSingleShot) {
  const data::SyntheticData data = tiny_data(21, 100, 97);  // prime test size
  nn::Sequential model = tiny_factory()(/*seed=*/3);
  const std::vector<float> weights = model.weights();

  // One chunk spanning the whole set = the unchunked reference.
  const Evaluation reference =
      evaluate_weights(model, weights, data.test, data.test.size());
  ASSERT_GT(reference.loss, 0.0);

  // 97 is prime: every chunk size below hits a ragged final chunk.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                            std::size_t{96}, std::size_t{200}}) {
    const Evaluation chunked =
        evaluate_weights(model, weights, data.test, chunk);
    EXPECT_NEAR(chunked.loss, reference.loss, 1e-6) << "chunk " << chunk;
    EXPECT_NEAR(chunked.accuracy, reference.accuracy, 1e-9)
        << "chunk " << chunk;
  }
}

TEST(EvaluateWeights, ExactChunkMultipleHasNoRaggedTail) {
  const data::SyntheticData data = tiny_data(22, 100, 96);
  nn::Sequential model = tiny_factory()(/*seed=*/4);
  const std::vector<float> weights = model.weights();
  const Evaluation reference =
      evaluate_weights(model, weights, data.test, 96);
  const Evaluation chunked =
      evaluate_weights(model, weights, data.test, 24);  // 4 full chunks
  EXPECT_NEAR(chunked.loss, reference.loss, 1e-6);
  EXPECT_NEAR(chunked.accuracy, reference.accuracy, 1e-9);
}

TEST(EvaluateWeights, LoadsTheGivenWeightsNotTheModelsOwn) {
  const data::SyntheticData data = tiny_data(23, 100, 50);
  nn::Sequential scratch = tiny_factory()(/*seed=*/5);
  const std::vector<float> trained = tiny_factory()(/*seed=*/6).weights();

  const Evaluation direct =
      evaluate_weights(scratch, trained, data.test, 16);
  // Re-running through a differently-initialized scratch model must give
  // the same answer: only `weights` may matter.
  nn::Sequential other = tiny_factory()(/*seed=*/99);
  const Evaluation via_other =
      evaluate_weights(other, trained, data.test, 16);
  EXPECT_DOUBLE_EQ(direct.loss, via_other.loss);
  EXPECT_DOUBLE_EQ(direct.accuracy, via_other.accuracy);
}

TEST(EvaluateWeights, EmptyDatasetYieldsZeros) {
  const data::SyntheticData data = tiny_data(24, 100, 50);
  nn::Sequential model = tiny_factory()(/*seed=*/7);
  const data::Dataset empty = data.test.subset({});
  const Evaluation r =
      evaluate_weights(model, model.weights(), empty, 8);
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.0);
}

// --- subsets scored from the one pass ----------------------------------------
// Each subset's accuracy must be the very double that evaluating the
// materialized subset on its own gives: the engines' per-tier accuracies
// (Alg. 2's A_t^r) replay bit for bit through this.

constexpr std::size_t kChunk = 49;  // not a power of 2: h / 49 * 49 != h

// Subsets of `test`: sorted with duplicates (as the tier index builder
// makes them), longer than a chunk with a ragged tail, unsorted, a single
// row, and empty.  The last non-empty one puts one hit among a chunk's
// 49 rows and misses in a 10-row tail, where summing hits before dividing
// would round differently.  `hits` are the rows' hit flags.
std::vector<std::vector<std::size_t>> test_subsets(
    const std::vector<std::uint8_t>& hits) {
  const std::size_t rows = hits.size();
  std::vector<std::vector<std::size_t>> subsets;
  util::Rng rng(31);
  std::vector<std::size_t>& dups = subsets.emplace_back();
  for (std::size_t i = 0; i < 97; ++i) dups.push_back(rng.uniform_index(rows));
  dups.push_back(dups.front());
  dups.push_back(dups.back());
  std::sort(dups.begin(), dups.end());
  std::vector<std::size_t>& ragged = subsets.emplace_back();
  for (std::size_t i = 3; i < 3 + 2 * kChunk + 21; ++i) ragged.push_back(i);
  std::vector<std::size_t>& unsorted = subsets.emplace_back();
  for (std::size_t i = 0; i < 70; ++i) unsorted.push_back((i * 37) % rows);
  subsets.push_back({rows - 1});
  std::vector<std::size_t>& rounding = subsets.emplace_back();
  const auto first_hit = std::find(hits.begin(), hits.end(), 1);
  EXPECT_NE(first_hit, hits.end());
  rounding.push_back(static_cast<std::size_t>(first_hit - hits.begin()));
  for (std::size_t i = 0; i < rows && rounding.size() < kChunk + 10; ++i) {
    if (hits[i] == 0) rounding.push_back(i);
  }
  EXPECT_EQ(rounding.size(), kChunk + 10);
  subsets.emplace_back();
  return subsets;
}

void expect_subsets_match_materialized(const nn::ModelFactory& factory,
                                       const data::Dataset& test) {
  nn::Sequential model = factory(/*seed=*/12);
  const std::vector<float> weights = factory(/*seed=*/13).weights();
  std::vector<std::size_t> all(test.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const data::Dataset::Batch batch = test.gather(all);
  std::vector<std::uint8_t> hits(test.size());
  model.set_weights(weights);
  model.evaluate(batch.x, batch.y, hits);
  const std::vector<std::vector<std::size_t>> subsets = test_subsets(hits);

  const Evaluation alone = evaluate_weights(model, weights, test, kChunk);
  const Evaluation with = evaluate_weights(model, weights, test, kChunk,
                                           subsets);
  EXPECT_TRUE(alone.subset_accuracies.empty());
  // Scoring subsets leaves the global pass untouched.
  EXPECT_EQ(with.loss, alone.loss);
  EXPECT_EQ(with.accuracy, alone.accuracy);

  ASSERT_EQ(with.subset_accuracies.size(), subsets.size());
  for (std::size_t s = 0; s < subsets.size(); ++s) {
    const Evaluation materialized =
        evaluate_weights(model, weights, test.subset(subsets[s]), kChunk);
    EXPECT_EQ(with.subset_accuracies[s], materialized.accuracy)
        << "subset " << s << " of " << subsets[s].size() << " rows";
  }
  EXPECT_EQ(with.subset_accuracies.back(), 0.0);  // the empty subset
}

TEST(EvaluateWeights, SubsetAccuraciesMatchMaterializedSubsetsTinyMlp) {
  const data::SyntheticData data = tiny_data(26, 100, 301);
  expect_subsets_match_materialized(tiny_factory(), data.test);
}

TEST(EvaluateWeights, SubsetAccuraciesMatchMaterializedSubsetsMlp48) {
  // fig7's model: MLP-48 over 3x8x8 inputs, 10 classes.
  data::SyntheticSpec spec;
  spec.dims = data::ImageDims{3, 8, 8};
  spec.train_samples = 10;
  spec.test_samples = 301;
  const data::SyntheticData data = data::make_synthetic(spec);
  expect_subsets_match_materialized(
      [](std::uint64_t seed) { return nn::mlp(192, 48, 10, seed); },
      data.test);
}

TEST(EvaluateWeights, SubsetAccuraciesMatchMaterializedSubsetsMnistCnn) {
  data::SyntheticSpec spec;
  spec.dims = data::ImageDims{1, 8, 8};
  spec.train_samples = 10;
  spec.test_samples = 301;
  const data::SyntheticData data = data::make_synthetic(spec);
  expect_subsets_match_materialized(
      [](std::uint64_t seed) {
        return nn::mnist_cnn(nn::ImageGeometry{1, 8, 8}, 10, seed);
      },
      data.test);
}

TEST(EvaluateWeights, SubsetIndexPastTheEndThrows) {
  const data::SyntheticData data = tiny_data(27, 100, 50);
  nn::Sequential model = tiny_factory()(/*seed=*/9);
  const std::vector<std::vector<std::size_t>> subsets{{0, 49}, {50}};
  EXPECT_THROW(
      evaluate_weights(model, model.weights(), data.test, 8, subsets),
      std::out_of_range);
}

TEST(EvaluateWeights, ZeroChunkThrows) {
  const data::SyntheticData data = tiny_data(25, 100, 50);
  nn::Sequential model = tiny_factory()(/*seed=*/8);
  EXPECT_THROW(evaluate_weights(model, model.weights(), data.test, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace tifl::fl
