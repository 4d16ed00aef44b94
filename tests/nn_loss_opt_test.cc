#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "nn/checkpoint.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tifl::nn {
namespace {

using tensor::Tensor;

// --- SoftmaxCrossEntropy -------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits({2, 4}, 0.0f);
  const std::vector<std::int32_t> labels{0, 3};
  SoftmaxCrossEntropy loss;
  const LossResult r = loss.compute(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
}

TEST(Loss, PerfectPredictionLowLoss) {
  Tensor logits({1, 3}, std::vector<float>{20.0f, 0.0f, 0.0f});
  const std::vector<std::int32_t> labels{0};
  SoftmaxCrossEntropy loss;
  const LossResult r = loss.compute(logits, labels);
  EXPECT_LT(r.loss, 1e-4);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

TEST(Loss, AccuracyCountsArgmaxHits) {
  Tensor logits({4, 2},
                std::vector<float>{2, 1,   // -> 0 (correct)
                                   1, 2,   // -> 1 (correct)
                                   2, 1,   // -> 0 (wrong, label 1)
                                   1, 2}); // -> 1 (wrong, label 0)
  const std::vector<std::int32_t> labels{0, 1, 1, 0};
  SoftmaxCrossEntropy loss;
  EXPECT_DOUBLE_EQ(loss.compute(logits, labels).accuracy, 0.5);
}

TEST(Loss, HitFlagsMarkEachRow) {
  Tensor logits({4, 2},
                std::vector<float>{2, 1,   // -> 0 (correct)
                                   1, 2,   // -> 1 (correct)
                                   2, 1,   // -> 0 (wrong, label 1)
                                   1, 2}); // -> 1 (wrong, label 0)
  const std::vector<std::int32_t> labels{0, 1, 1, 0};
  SoftmaxCrossEntropy loss;
  std::vector<std::uint8_t> hits(4, 7);
  const LossResult r = loss.compute(logits, labels, false, hits);
  EXPECT_EQ(hits, (std::vector<std::uint8_t>{1, 1, 0, 0}));
  // Flags do not change what the pass reports.
  EXPECT_DOUBLE_EQ(r.accuracy, loss.compute(logits, labels).accuracy);
  std::vector<std::uint8_t> short_hits(3);
  EXPECT_THROW(loss.compute(logits, labels, false, short_hits),
               std::invalid_argument);
}

TEST(Loss, NonFiniteRowIsAMissNotAClassZeroHit) {
  // A NaN or +inf logit turns its softmax row NaN.  Such a row must not
  // read as a class-0 prediction: a diverged model would otherwise report
  // the class-0 share as its accuracy.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor logits({5, 3}, std::vector<float>{nan, nan, nan,     // label 0
                                           1.0f, nan, 0.0f,   // label 0
                                           2.0f, inf, 0.0f,   // label 0
                                           nan, nan, nan,     // label 1
                                           3.0f, 0.0f, 0.0f});  // label 0
  const std::vector<std::int32_t> labels{0, 0, 0, 1, 0};
  SoftmaxCrossEntropy loss;
  std::vector<std::uint8_t> hits(5);
  const LossResult r = loss.compute(logits, labels, false, hits);
  EXPECT_EQ(hits, (std::vector<std::uint8_t>{0, 0, 0, 0, 1}));
  EXPECT_DOUBLE_EQ(r.accuracy, 0.2);
  EXPECT_TRUE(std::isnan(r.loss));
}

TEST(Loss, GradientIsSoftmaxMinusOnehotOverBatch) {
  Tensor logits({2, 3}, std::vector<float>{1, 2, 3, 0, 0, 0});
  const std::vector<std::int32_t> labels{2, 0};
  SoftmaxCrossEntropy loss;
  const LossResult r = loss.compute(logits, labels, /*with_grad=*/true);
  // Row sums of the gradient are zero (softmax sums to 1, onehot sums to 1).
  for (std::int64_t row = 0; row < 2; ++row) {
    float s = 0.0f;
    for (std::int64_t c = 0; c < 3; ++c) s += r.dlogits.at(row, c);
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
  // Label entries are negative, others positive.
  EXPECT_LT(r.dlogits.at(0, 2), 0.0f);
  EXPECT_GT(r.dlogits.at(0, 0), 0.0f);
  EXPECT_LT(r.dlogits.at(1, 0), 0.0f);
}

TEST(Loss, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<std::int32_t> labels{1, 4, 0};
  SoftmaxCrossEntropy loss;
  const LossResult r = loss.compute(logits, labels, /*with_grad=*/true);
  const double h = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); i += 2) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(h);
    const double fp = loss.compute(logits, labels, false).loss;
    logits[i] = saved - static_cast<float>(h);
    const double fm = loss.compute(logits, labels, false).loss;
    logits[i] = saved;
    EXPECT_NEAR(r.dlogits[i], (fp - fm) / (2.0 * h), 5e-3) << "logit " << i;
  }
}

TEST(Loss, EvalOnlySkipsGradient) {
  Tensor logits({1, 2}, std::vector<float>{1, 2});
  const std::vector<std::int32_t> labels{0};
  SoftmaxCrossEntropy loss;
  EXPECT_TRUE(loss.compute(logits, labels, false).dlogits.empty());
}

TEST(Loss, RejectsBadInputs) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  EXPECT_THROW(loss.compute(logits, std::vector<std::int32_t>{0}),
               std::invalid_argument);
  EXPECT_THROW(loss.compute(logits, std::vector<std::int32_t>{0, 5}),
               std::out_of_range);
  Tensor bad({6});
  EXPECT_THROW(loss.compute(bad, std::vector<std::int32_t>{0}),
               std::invalid_argument);
}

// --- Optimizers ----------------------------------------------------------------

TEST(Sgd, SingleStepIsLrTimesGrad) {
  Tensor w({3}, std::vector<float>{1, 1, 1});
  Tensor g({3}, std::vector<float>{1, -2, 0.5f});
  Sgd opt(0.1);
  std::vector<Tensor*> params{&w}, grads{&g};
  opt.step(params, grads);
  EXPECT_FLOAT_EQ(w[0], 0.9f);
  EXPECT_FLOAT_EQ(w[1], 1.2f);
  EXPECT_FLOAT_EQ(w[2], 0.95f);
}

TEST(Sgd, MismatchedSpansThrow) {
  Tensor w({1});
  Sgd opt(0.1);
  std::vector<Tensor*> params{&w}, grads{};
  EXPECT_THROW(opt.step(params, grads), std::invalid_argument);
}

TEST(RmsProp, ConvergesOnQuadraticFasterThanPlainGradient) {
  // Minimize f(w) = 0.5 * sum(a_i * w_i^2) with wildly scaled curvatures;
  // RMSProp's per-coordinate scaling must drive both coordinates down.
  Tensor w({2}, std::vector<float>{5.0f, 5.0f});
  Tensor g({2});
  const float a0 = 100.0f, a1 = 0.01f;
  RmsProp opt(0.1);
  std::vector<Tensor*> params{&w}, grads{&g};
  for (int step = 0; step < 300; ++step) {
    g[0] = a0 * w[0];
    g[1] = a1 * w[1];
    opt.step(params, grads);
  }
  EXPECT_LT(std::abs(w[0]), 0.1f);
  EXPECT_LT(std::abs(w[1]), 0.5f);
}

TEST(RmsProp, FirstStepMagnitudeIsLrOverSqrtOneMinusRho) {
  // With zero cache, update = lr * g / (sqrt((1-rho) g^2) + eps).
  Tensor w({1}, std::vector<float>{0.0f});
  Tensor g({1}, std::vector<float>{2.0f});
  RmsProp opt(0.01, 0.9);
  std::vector<Tensor*> params{&w}, grads{&g};
  opt.step(params, grads);
  EXPECT_NEAR(w[0], -0.01 / std::sqrt(0.1), 1e-4);
}

TEST(MomentumSgd, AcceleratesAlongPersistentGradient) {
  // With a constant gradient, velocity accumulates: after k steps the
  // update magnitude approaches lr * g / (1 - mu).
  Tensor w({1}, std::vector<float>{0.0f});
  Tensor g({1}, std::vector<float>{1.0f});
  MomentumSgd opt(0.1, 0.5);
  std::vector<Tensor*> params{&w}, grads{&g};
  // Step 1: v = 1, w -= 0.1 -> -0.1. Step 2: v = 1.5, w -= 0.15 -> -0.25.
  opt.step(params, grads);
  EXPECT_NEAR(w[0], -0.1f, 1e-6f);
  opt.step(params, grads);
  EXPECT_NEAR(w[0], -0.25f, 1e-6f);
}

TEST(MomentumSgd, ZeroMomentumMatchesPlainSgd) {
  Tensor w1({2}, std::vector<float>{1.0f, -1.0f});
  Tensor w2 = w1;
  Tensor g({2}, std::vector<float>{0.3f, 0.7f});
  MomentumSgd momentum(0.05, 0.0);
  Sgd plain(0.05);
  std::vector<Tensor*> p1{&w1}, p2{&w2}, gs{&g};
  for (int i = 0; i < 5; ++i) {
    momentum.step(p1, gs);
    plain.step(p2, gs);
  }
  EXPECT_EQ(tensor::max_abs_diff(w1, w2), 0.0f);
}

TEST(MomentumSgd, ConvergesOnQuadratic) {
  Tensor w({1}, std::vector<float>{10.0f});
  Tensor g({1});
  MomentumSgd opt(0.05, 0.9);
  std::vector<Tensor*> params{&w}, grads{&g};
  for (int step = 0; step < 200; ++step) {
    g[0] = w[0];  // f(w) = w^2 / 2
    opt.step(params, grads);
  }
  EXPECT_LT(std::abs(w[0]), 0.05f);
}

TEST(Optimizer, LrDecay) {
  Sgd opt(0.01);
  opt.decay_lr(0.995);
  EXPECT_DOUBLE_EQ(opt.lr(), 0.00995);
  opt.set_lr(0.5);
  EXPECT_DOUBLE_EQ(opt.lr(), 0.5);
}

TEST(OptimizerConfig, MakeProducesConfiguredKind) {
  OptimizerConfig config;
  config.kind = OptimizerConfig::Kind::kSgd;
  auto sgd = config.make(0.02);
  EXPECT_DOUBLE_EQ(sgd->lr(), 0.02);
  config.kind = OptimizerConfig::Kind::kRmsProp;
  auto rms = config.make(0.03);
  EXPECT_DOUBLE_EQ(rms->lr(), 0.03);
  config.kind = OptimizerConfig::Kind::kMomentumSgd;
  auto momentum = config.make(0.04);
  EXPECT_DOUBLE_EQ(momentum->lr(), 0.04);
}

// --- checkpoints ---------------------------------------------------------------

TEST(Checkpoint, RoundTripsExactBits) {
  const std::string path = ::testing::TempDir() + "tifl_ckpt_test.bin";
  util::Rng rng(1);
  std::vector<float> weights(1000);
  for (float& w : weights) w = static_cast<float>(rng.normal());
  save_weights(path, weights);
  EXPECT_EQ(load_weights(path), weights);
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoresModelBehaviour) {
  const std::string path = ::testing::TempDir() + "tifl_ckpt_model.bin";
  Sequential trained = mlp(8, 6, 3, 1);
  save_weights(path, trained.weights());
  Sequential restored = mlp(8, 6, 3, 2);  // different init
  restored.set_weights(load_weights(path));
  util::Rng rng(3);
  const Tensor x = Tensor::randn({4, 8}, rng);
  PassContext ctx{};
  EXPECT_EQ(tensor::max_abs_diff(trained.forward(x, ctx),
                                 restored.forward(x, ctx)),
            0.0f);
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptyWeightsAllowed) {
  const std::string path = ::testing::TempDir() + "tifl_ckpt_empty.bin";
  save_weights(path, {});
  EXPECT_TRUE(load_weights(path).empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(load_weights("/nonexistent/tifl.bin"), std::runtime_error);
}

TEST(Checkpoint, CorruptMagicThrows) {
  const std::string path = ::testing::TempDir() + "tifl_ckpt_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAWGT1garbage";
  }
  EXPECT_THROW(load_weights(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedPayloadThrows) {
  const std::string path = ::testing::TempDir() + "tifl_ckpt_trunc.bin";
  save_weights(path, std::vector<float>(100, 1.0f));
  // Chop the file short.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_weights(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tifl::nn
