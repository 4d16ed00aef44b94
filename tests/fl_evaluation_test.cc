// Block-parallel evaluation (fl/evaluation.h): every row's hit flag and
// log-probability equal one whole-set forward pass at any pool size; the
// fold equals the serial chunk loop the pass replaced; subset accuracies
// equal evaluating each materialized subset on its own; and the edge
// cases (empty set, throwing blocks, bad subset index, NaN weights).
#include "fl/evaluation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "fl/client_pool.h"
#include "nn/model_zoo.h"
#include "tensor/pack.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

using testing::tiny_data;
using testing::tiny_factory;

// A pool and one scratch model per participant, the way
// CohortTrainer::evaluate hands them to evaluate_weights.
struct Participants {
  Participants(const nn::ModelFactory& factory, std::size_t threads,
               std::uint64_t seed = 100)
      : pool(threads) {
    for (std::size_t i = 0; i <= threads; ++i) {
      models.push_back(factory(seed + i));
    }
  }

  Evaluation evaluate(std::span<const float> weights,
                      const data::Dataset& dataset, std::size_t chunk,
                      std::span<const std::vector<std::size_t>> subsets = {}) {
    return evaluate_weights(models, pool, weights, dataset, chunk, subsets);
  }

  util::ThreadPool pool;
  std::vector<nn::Sequential> models;
};

constexpr std::size_t kPools[] = {1, 2, 8};

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

// --- the serial chunk loop the block pass replaced --------------------------
// A copy of it: one model walks `chunk`-row mini-batches in order and sums
// each batch's mean loss and accuracy times its row count; subsets are
// scored from the hit flags in `chunk`-sized steps.

double serial_subset_accuracy(const std::vector<std::uint8_t>& hits,
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

Evaluation serial_chunk_loop(
    nn::Sequential& model, std::span<const float> weights,
    const data::Dataset& dataset, std::size_t chunk,
    std::span<const std::vector<std::size_t>> subsets = {}) {
  model.set_weights(weights);
  std::vector<std::uint8_t> hits(subsets.empty() ? 0 : dataset.size());
  Evaluation total;
  std::size_t seen = 0;
  std::vector<std::size_t> indices;
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
  for (const std::vector<std::size_t>& subset : subsets) {
    total.subset_accuracies.push_back(
        serial_subset_accuracy(hits, subset, chunk));
  }
  return total;
}

// --- chunking ---------------------------------------------------------------

TEST(EvaluateWeights, ChunkingsAgreeWithSingleShot) {
  const data::SyntheticData data = tiny_data(21, 100, 97);  // prime test size
  Participants participants(tiny_factory(), 2);
  const std::vector<float> weights = tiny_factory()(/*seed=*/3).weights();

  // One chunk spanning the whole set = the unchunked reference.
  const Evaluation reference =
      participants.evaluate(weights, data.test, data.test.size());
  ASSERT_GT(reference.loss, 0.0);

  // 97 is prime: every chunk size below hits a ragged final chunk.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                            std::size_t{96}, std::size_t{200}}) {
    const Evaluation chunked = participants.evaluate(weights, data.test, chunk);
    EXPECT_NEAR(chunked.loss, reference.loss, 1e-6) << "chunk " << chunk;
    EXPECT_NEAR(chunked.accuracy, reference.accuracy, 1e-9)
        << "chunk " << chunk;
  }
}

TEST(EvaluateWeights, ExactChunkMultipleHasNoRaggedTail) {
  const data::SyntheticData data = tiny_data(22, 100, 96);
  Participants participants(tiny_factory(), 2);
  const std::vector<float> weights = tiny_factory()(/*seed=*/4).weights();
  const Evaluation reference = participants.evaluate(weights, data.test, 96);
  const Evaluation chunked =
      participants.evaluate(weights, data.test, 24);  // 4 full chunks
  EXPECT_NEAR(chunked.loss, reference.loss, 1e-6);
  EXPECT_NEAR(chunked.accuracy, reference.accuracy, 1e-9);
}

TEST(EvaluateWeights, LoadsTheGivenWeightsNotTheModelsOwn) {
  const data::SyntheticData data = tiny_data(23, 100, 50);
  const std::vector<float> trained = tiny_factory()(/*seed=*/6).weights();
  Participants scratch(tiny_factory(), 2, /*seed=*/5);
  const Evaluation direct = scratch.evaluate(trained, data.test, 16);
  // Re-running through differently-initialized scratch models must give
  // the same answer: only `weights` may matter.
  Participants other(tiny_factory(), 2, /*seed=*/99);
  const Evaluation via_other = other.evaluate(trained, data.test, 16);
  EXPECT_DOUBLE_EQ(direct.loss, via_other.loss);
  EXPECT_DOUBLE_EQ(direct.accuracy, via_other.accuracy);
}

TEST(EvaluateWeights, EmptyDatasetYieldsZeros) {
  const data::SyntheticData data = tiny_data(24, 100, 50);
  Participants participants(tiny_factory(), 2);
  const data::Dataset empty = data.test.subset({});
  const Evaluation r = participants.evaluate(
      participants.models.front().weights(), empty, 8);
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.0);
}

TEST(EvaluateWeights, EmptyDatasetOpensNoRegion) {
  // With no rows there is nothing to run, so no model is touched: none is
  // given here, which a non-empty set rejects.
  const data::SyntheticData data = tiny_data(24, 100, 50);
  const data::Dataset empty = data.test.subset({});
  const std::vector<float> weights = tiny_factory()(/*seed=*/7).weights();
  util::ThreadPool pool(2);
  const std::vector<std::vector<std::size_t>> subsets{{}};
  const Evaluation r =
      evaluate_weights({}, pool, weights, empty, 8, subsets);
  EXPECT_EQ(r.loss, 0.0);
  EXPECT_EQ(r.accuracy, 0.0);
  EXPECT_EQ(r.subset_accuracies, std::vector<double>{0.0});
  EXPECT_THROW(evaluate_weights({}, pool, weights, data.test, 8),
               std::invalid_argument);

  CohortTrainer trainer(tiny_factory(), LocalTrainParams{});
  trainer.set_thread_pool(&pool);
  const Evaluation t = trainer.evaluate(weights, empty, 8);
  EXPECT_EQ(t.loss, 0.0);
  EXPECT_EQ(t.accuracy, 0.0);
}

// --- the block pass against one whole-set pass -------------------------------

struct ModelCase {
  const char* name;
  data::ImageDims dims;
  nn::ModelFactory factory;
  // Has a dense layer with K > kKC.  A serial chunk loop whose chunk (or
  // tail) holds at most kStreamMaxM rows sends that layer to the stream
  // path, which sums all of K at once instead of per kKC block: that
  // loop's loss depended on its chunk size, and no row-independent pass
  // reproduces it.
  bool wide;
};

nn::ModelFactory mlp_factory(std::int64_t inputs) {
  return [inputs](std::uint64_t seed) { return nn::mlp(inputs, 48, 10, seed); };
}

nn::ImageGeometry geometry(const data::ImageDims& d) {
  return nn::ImageGeometry{d.channels, d.height, d.width};
}

nn::ModelFactory mnist_cnn_factory(data::ImageDims dims) {
  return [dims](std::uint64_t seed) {
    return nn::mnist_cnn(geometry(dims), 10, seed);
  };
}

// Around one block (16 rows) and two, and a many-block set whose last
// block takes the remainder rows (301 = 18 * 16 + 13).
constexpr std::size_t kSizes[] = {1, 15, 16, 17, 31, 32, 301};
// The paper-geometry CNNs take 33 for 301: two blocks, and two 32-image
// conv slabs in the whole-set pass.  301 rows through the three of them
// cost over 10 s of forward passes even in an optimized build.
constexpr std::size_t kPaperGeometrySizes[] = {1, 15, 16, 17, 31, 32, 33};
constexpr std::size_t kChunks[] = {7, 49, 512};

data::Dataset synthetic_test(const data::ImageDims& dims, std::size_t rows) {
  data::SyntheticSpec spec;
  spec.dims = dims;
  spec.train_samples = 10;
  spec.test_samples = static_cast<std::int64_t>(rows);
  spec.seed = 57;
  return data::make_synthetic(spec).test;
}

// True when every call of the serial chunk loop over `rows` rows is row
// independent for this model (see ModelCase::wide).
bool chunk_loop_is_row_independent(const ModelCase& c, std::size_t rows,
                                   std::size_t chunk) {
  const auto long_enough = [](std::size_t n) {
    return n > static_cast<std::size_t>(tensor::kStreamMaxM);
  };
  const std::size_t tail = rows % chunk;
  return !c.wide || chunk >= rows ||
         (long_enough(chunk) && (tail == 0 || long_enough(tail)));
}

// Tier-like subsets of `rows` rows: sorted with duplicates, unsorted, the
// last row, and empty.
std::vector<std::vector<std::size_t>> tier_subsets(std::size_t rows) {
  util::Rng rng(rows);
  std::vector<std::vector<std::size_t>> subsets(4);
  for (std::size_t i = 0; i < rows + 3; ++i) {
    subsets[0].push_back(rng.uniform_index(rows));
  }
  std::sort(subsets[0].begin(), subsets[0].end());
  for (std::size_t i = 0; i < rows; i += 2) {
    subsets[1].push_back((i * 37) % rows);
  }
  subsets[2].push_back(rows - 1);
  return subsets;
}

// Every row at every size against one whole-set pass, at each pool; then
// the fold at each chunk against the serial chunk loop, wherever that
// loop was row independent (chunks past the set's size fold alike, so
// they are checked once).
void expect_block_pass_matches(const ModelCase& c,
                               std::span<const std::size_t> sizes) {
  SCOPED_TRACE(c.name);
  const data::Dataset full = synthetic_test(c.dims, sizes.back());
  const std::vector<float> weights = c.factory(/*seed=*/13).weights();
  nn::Sequential serial = c.factory(/*seed=*/12);
  std::vector<std::unique_ptr<Participants>> pools;
  for (const std::size_t threads : kPools) {
    pools.push_back(std::make_unique<Participants>(c.factory, threads));
  }

  for (const std::size_t rows : sizes) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const data::Dataset test = full.subset(iota_indices(rows));
    const data::Dataset::Batch batch = test.gather(iota_indices(rows));
    RowScores whole{std::vector<std::uint8_t>(rows),
                    std::vector<float>(rows)};
    serial.set_weights(weights);
    serial.evaluate(batch.x, batch.y, whole.hits, whole.log_probs);

    for (std::size_t p = 0; p < pools.size(); ++p) {
      const RowScores blocks =
          score_rows(pools[p]->models, pools[p]->pool, weights, test);
      EXPECT_EQ(blocks.hits, whole.hits) << "pool " << kPools[p];
      EXPECT_EQ(blocks.log_probs, whole.log_probs) << "pool " << kPools[p];
    }

    const std::vector<std::vector<std::size_t>> subsets = tier_subsets(rows);
    bool folded_whole = false;
    for (const std::size_t chunk : kChunks) {
      if (!chunk_loop_is_row_independent(c, rows, chunk)) continue;
      if (chunk >= rows && std::exchange(folded_whole, true)) continue;
      const Evaluation want =
          serial_chunk_loop(serial, weights, test, chunk, subsets);
      const Evaluation got =
          pools.back()->evaluate(weights, test, chunk, subsets);
      EXPECT_EQ(got.loss, want.loss) << "chunk " << chunk;
      EXPECT_EQ(got.accuracy, want.accuracy) << "chunk " << chunk;
      EXPECT_EQ(got.subset_accuracies, want.subset_accuracies)
          << "chunk " << chunk;
    }
  }
}

TEST(ScoreRows, SmallModelsMatchWholeSetPassAndSerialChunkLoop) {
  const ModelCase cases[] = {
      {"mlp 3x8x8", {3, 8, 8}, mlp_factory(192), false},
      {"mlp 1x28x28", {1, 28, 28}, mlp_factory(784), true},
      {"mnist_cnn 8x8", {1, 8, 8}, mnist_cnn_factory({1, 8, 8}), false},
  };
  for (const ModelCase& c : cases) expect_block_pass_matches(c, kSizes);
}

// The dense layers of these models have K > kKC.  Their forward passes
// take ~10 s here in an optimized build and many minutes in an
// unoptimized one under a sanitizer, so unoptimized builds skip this
// case; the small-model case above runs the same block pass in every
// build, the 784-input MLP's K > kKC layer included.
TEST(ScoreRows, PaperGeometryCnnsMatchWholeSetPassAndSerialChunkLoop) {
#ifndef NDEBUG
  GTEST_SKIP() << "paper-geometry CNN passes run in optimized builds only";
#endif
  const data::ImageDims cifar{3, 32, 32}, femnist{1, 28, 28};
  const ModelCase cases[] = {
      {"mnist_cnn 28x28", {1, 28, 28}, mnist_cnn_factory({1, 28, 28}), true},
      {"cifar_cnn 32x32", cifar,
       [cifar](std::uint64_t seed) {
         return nn::cifar_cnn(geometry(cifar), 10, seed);
       },
       true},
      {"femnist_cnn 28x28", femnist,
       [femnist](std::uint64_t seed) {
         return nn::femnist_cnn(geometry(femnist), 10, seed, /*hidden=*/128);
       },
       true},
  };
  for (const ModelCase& c : cases) {
    expect_block_pass_matches(c, kPaperGeometrySizes);
  }
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
  Participants participants(factory, 2, /*seed=*/12);
  nn::Sequential model = factory(/*seed=*/12);
  const std::vector<float> weights = factory(/*seed=*/13).weights();
  const data::Dataset::Batch batch = test.gather(iota_indices(test.size()));
  std::vector<std::uint8_t> hits(test.size());
  model.set_weights(weights);
  model.evaluate(batch.x, batch.y, hits);
  const std::vector<std::vector<std::size_t>> subsets = test_subsets(hits);

  const Evaluation alone = participants.evaluate(weights, test, kChunk);
  const Evaluation with =
      participants.evaluate(weights, test, kChunk, subsets);
  EXPECT_TRUE(alone.subset_accuracies.empty());
  // Scoring subsets leaves the global pass untouched.
  EXPECT_EQ(with.loss, alone.loss);
  EXPECT_EQ(with.accuracy, alone.accuracy);

  ASSERT_EQ(with.subset_accuracies.size(), subsets.size());
  for (std::size_t s = 0; s < subsets.size(); ++s) {
    const Evaluation materialized =
        participants.evaluate(weights, test.subset(subsets[s]), kChunk);
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

// --- errors and non-finite weights -------------------------------------------

TEST(EvaluateWeights, SubsetIndexPastTheEndThrows) {
  const data::SyntheticData data = tiny_data(27, 100, 50);
  Participants participants(tiny_factory(), 2);
  const std::vector<std::vector<std::size_t>> subsets{{0, 49}, {50}};
  EXPECT_THROW(participants.evaluate(participants.models.front().weights(),
                                     data.test, 8, subsets),
               std::out_of_range);
}

TEST(EvaluateWeights, ZeroChunkThrows) {
  const data::SyntheticData data = tiny_data(25, 100, 50);
  Participants participants(tiny_factory(), 2);
  EXPECT_THROW(participants.evaluate(participants.models.front().weights(),
                                     data.test, 0),
               std::invalid_argument);
}

// Passes its input through and counts the calls.
class CountingLayer final : public nn::Layer {
 public:
  explicit CountingLayer(std::atomic<std::size_t>* calls) : calls_(calls) {}
  nn::Tensor forward(const nn::Tensor& x, const nn::PassContext&) override {
    calls_->fetch_add(1);
    return x;
  }
  nn::Tensor backward(const nn::Tensor& dy) override { return dy; }
  std::string name() const override { return "Counting"; }

 private:
  std::atomic<std::size_t>* calls_;
};

TEST(ScoreRows, ThrowingBlocksRethrowTheLowestAfterEveryBlockRan) {
  // The models know 3 classes; the set declares 5 and holds label 3 in
  // block 1 (rows 16-31) and label 4 in block 4 (rows 64-79) of its six
  // blocks, so those two blocks throw in the loss, after their forward.
  constexpr std::int64_t kModelClasses = 3;
  const data::SyntheticData data = tiny_data(28, 100, 100);
  std::vector<std::int32_t> labels;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    labels.push_back(data.test.labels()[i] % kModelClasses);
  }
  labels[20] = 3;
  labels[70] = 4;
  const data::Dataset test(data.test.features(), labels, 5);
  const nn::ModelFactory factory = tiny_factory(36, kModelClasses);
  const std::vector<float> weights = factory(/*seed=*/3).weights();

  for (const std::size_t threads : kPools) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    std::atomic<std::size_t> calls{0};
    Participants participants(
        [&calls, &factory](std::uint64_t seed) {
          nn::Sequential model = factory(seed);
          model.add(std::make_unique<CountingLayer>(&calls));
          return model;
        },
        threads);
    try {
      participants.evaluate(weights, test, 512);
      FAIL() << "out-of-range labels were accepted";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("label 3 "), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(calls.load(), 6u);  // 100 rows: five 16-row blocks and a 20
  }

  // Evaluating on a trainer's scratch models leaves its training as it
  // was, also when the evaluation threw.
  data::SyntheticSpec spec;
  spec.classes = kModelClasses;
  spec.dims = data::ImageDims{1, 6, 6};
  spec.train_samples = 90;
  spec.test_samples = 10;
  const data::SyntheticData train = data::make_synthetic(spec);
  std::vector<Client> clients;
  for (std::size_t id = 0; id < 3; ++id) {
    std::vector<std::size_t> shard;
    for (std::size_t i = id * 30; i < (id + 1) * 30; ++i) shard.push_back(i);
    clients.emplace_back(id, &train.train, shard, std::vector<std::size_t>{},
                         sim::ResourceProfile{});
  }
  ClientPool clients_pool(&clients);
  const std::vector<std::size_t> ids{0, 1, 2};
  obs::PhaseTimer phases;
  const auto train_cohort = [&](CohortTrainer& trainer) {
    std::vector<LocalUpdate> updates;
    trainer.train(clients_pool, ids, weights, 0.05, /*seed=*/9, /*seq=*/1,
                  updates, phases);
    return updates;
  };
  util::ThreadPool pool(2);
  CohortTrainer fresh(factory, LocalTrainParams{});
  fresh.set_thread_pool(&pool);
  const std::vector<LocalUpdate> want = train_cohort(fresh);

  CohortTrainer evaluated(factory, LocalTrainParams{});
  evaluated.set_thread_pool(&pool);
  EXPECT_THROW(evaluated.evaluate(weights, test, 512), std::out_of_range);
  const std::vector<LocalUpdate> got = train_cohort(evaluated);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].weights, want[i].weights) << "client " << i;
    EXPECT_EQ(got[i].train_loss, want[i].train_loss) << "client " << i;
  }
}

TEST(EvaluateWeights, NanWeightsGiveNanLossAndZeroAccuracyAtEveryPool) {
  const data::SyntheticData data = tiny_data(29, 100, 301);
  const std::vector<float> weights(tiny_factory()(/*seed=*/1).weight_count(),
                                   std::numeric_limits<float>::quiet_NaN());
  const std::vector<std::vector<std::size_t>> subsets{{0, 5, 300}, {}};
  for (const std::size_t threads : kPools) {
    Participants participants(tiny_factory(), threads);
    const Evaluation r = participants.evaluate(weights, data.test, 49, subsets);
    EXPECT_TRUE(std::isnan(r.loss)) << "pool " << threads;
    EXPECT_EQ(r.accuracy, 0.0) << "pool " << threads;
    EXPECT_EQ(r.subset_accuracies, (std::vector<double>{0.0, 0.0}))
        << "pool " << threads;
  }
}

}  // namespace
}  // namespace tifl::fl
