#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tifl::nn {
namespace {

using tensor::Tensor;

Sequential small_mlp(std::uint64_t seed) { return mlp(8, 6, 3, seed); }

TEST(Sequential, ReluFusionIsBitIdenticalToUnfused) {
  // The fusion pass folds Dense/Conv2D + ReLU pairs into GEMM epilogues;
  // training trajectories with fusion on and off must match bit for bit.
  const nn::ImageGeometry geo{.channels = 1, .height = 8, .width = 8};
  Sequential fused = mnist_cnn(geo, 4, /*seed=*/5);
  Sequential plain = mnist_cnn(geo, 4, /*seed=*/5);
  plain.set_fusion_enabled(false);

  util::Rng data_rng(31);
  Tensor x = Tensor::randn({6, 1, 8, 8}, data_rng);
  std::vector<std::int32_t> labels(6);
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(data_rng.uniform_index(4));
  }

  for (int step = 0; step < 3; ++step) {
    Sgd opt_f(0.05), opt_p(0.05);
    util::Rng rng_f(7), rng_p(7);
    const LossResult rf = fused.train_batch(x, labels, opt_f, rng_f);
    const LossResult rp = plain.train_batch(x, labels, opt_p, rng_p);
    EXPECT_EQ(rf.loss, rp.loss) << "step " << step;
    EXPECT_EQ(fused.weights(), plain.weights()) << "step " << step;
  }
}

// train_batch stops its backward pass at the first layer with parameters
// and tells that layer to skip its input gradient.  A hand-written loop
// that forwards every layer with the default context and runs every
// layer's full backward must reach the same weights bit for bit.
void expect_skip_matches_full_backward(Sequential& model, Sequential& full,
                                       const Tensor& x,
                                       std::span<const std::int32_t> labels) {
  SoftmaxCrossEntropy loss;
  RmsProp opt_model(0.01), opt_full(0.01);
  for (int step = 0; step < 3; ++step) {
    util::Rng rng_model(40 + step), rng_full(40 + step);
    model.train_batch(x, labels, opt_model, rng_model);

    full.zero_grads();
    const PassContext ctx{.training = true, .rng = &rng_full};
    std::vector<Tensor> inputs{x};
    for (std::size_t i = 0; i < full.layer_count(); ++i) {
      inputs.push_back(full.layer(i).forward(inputs.back(), ctx));
    }
    Tensor grad = loss.compute(inputs.back(), labels, true).dlogits;
    for (std::size_t i = full.layer_count(); i-- > 0;) {
      grad = full.layer(i).backward(grad);
      EXPECT_EQ(grad.shape(), inputs[i].shape()) << "layer " << i;
    }
    opt_full.step(full.params(), full.grads());

    EXPECT_EQ(model.weights(), full.weights()) << "step " << step;
  }
}

TEST(Sequential, InputGradientSkipMatchesFullBackwardMlp) {
  Sequential model = mlp(12, 8, 3, /*seed=*/11);
  Sequential full = mlp(12, 8, 3, /*seed=*/11);
  util::Rng data_rng(12);
  const Tensor x = Tensor::randn({10, 12}, data_rng);
  const std::vector<std::int32_t> labels{0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  expect_skip_matches_full_backward(model, full, x, labels);
}

TEST(Sequential, InputGradientSkipMatchesFullBackwardCnn) {
  const ImageGeometry geo{.channels = 1, .height = 8, .width = 8};
  Sequential model = mnist_cnn(geo, 4, /*seed=*/13);
  Sequential full = mnist_cnn(geo, 4, /*seed=*/13);
  util::Rng data_rng(14);
  const Tensor x = Tensor::randn({6, 1, 8, 8}, data_rng);
  const std::vector<std::int32_t> labels{0, 1, 2, 3, 0, 1};
  expect_skip_matches_full_backward(model, full, x, labels);
}

TEST(Sequential, LayersUsedAloneAfterTrainBatchStillReturnDx) {
  // The skip lives in the training forward's context: once train_batch is
  // done, the same first Dense/Conv2D driven on its own returns dX again.
  util::Rng rng(15);
  Sgd opt(0.01);
  Sequential dense_model = mlp(6, 4, 2, /*seed=*/16);
  const Tensor xd = Tensor::randn({3, 6}, rng);
  dense_model.train_batch(xd, std::vector<std::int32_t>{0, 1, 0}, opt, rng);
  Layer& dense = dense_model.layer(1);  // Flatten, then Dense
  ASSERT_EQ(dense.name(), "Dense");
  const PassContext ctx{.training = true, .rng = &rng};
  const Tensor yd = dense.forward(xd, ctx);
  EXPECT_EQ(dense.backward(yd).shape(), xd.shape());

  const ImageGeometry geo{.channels = 1, .height = 8, .width = 8};
  Sequential cnn = mnist_cnn(geo, 2, /*seed=*/17);
  const Tensor xc = Tensor::randn({2, 1, 8, 8}, rng);
  cnn.train_batch(xc, std::vector<std::int32_t>{0, 1}, opt, rng);
  Layer& conv = cnn.layer(0);
  ASSERT_EQ(conv.name(), "Conv2D");
  const Tensor yc = conv.forward(xc, ctx);
  EXPECT_EQ(conv.backward(yc).shape(), xc.shape());
}

TEST(Sequential, WeightsRoundTrip) {
  Sequential model = small_mlp(1);
  const std::vector<float> w = model.weights();
  EXPECT_EQ(w.size(), model.weight_count());
  Sequential other = small_mlp(2);
  EXPECT_NE(other.weights(), w);  // different init
  other.set_weights(w);
  EXPECT_EQ(other.weights(), w);
}

TEST(Sequential, WeightCountMatchesArchitecture) {
  // mlp(8,6,3): Dense(8,6): 8*6+6; Dense(6,3): 6*3+3.
  Sequential model = small_mlp(1);
  EXPECT_EQ(model.weight_count(), 8u * 6u + 6u + 6u * 3u + 3u);
}

TEST(Sequential, SetWeightsRejectsWrongLength) {
  Sequential model = small_mlp(1);
  std::vector<float> tooShort(model.weight_count() - 1, 0.0f);
  std::vector<float> tooLong(model.weight_count() + 1, 0.0f);
  EXPECT_THROW(model.set_weights(tooShort), std::invalid_argument);
  EXPECT_THROW(model.set_weights(tooLong), std::invalid_argument);
}

TEST(Sequential, SameSeedSameInit) {
  EXPECT_EQ(small_mlp(7).weights(), small_mlp(7).weights());
}

TEST(Sequential, ForwardShape) {
  Sequential model = small_mlp(1);
  util::Rng rng(1);
  PassContext ctx{};
  const Tensor y = model.forward(Tensor::randn({5, 8}, rng), ctx);
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 3}));
}

TEST(Sequential, TrainingReducesLossOnFixedBatch) {
  Sequential model = small_mlp(3);
  util::Rng rng(4);
  const Tensor x = Tensor::randn({16, 8}, rng);
  std::vector<std::int32_t> labels(16);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 3);
  }
  Sgd opt(0.1);
  const double initial = model.evaluate(x, labels).loss;
  for (int step = 0; step < 60; ++step) {
    model.train_batch(x, labels, opt, rng);
  }
  const double final = model.evaluate(x, labels).loss;
  EXPECT_LT(final, initial * 0.5);
}

TEST(Sequential, EvaluateIsDeterministicDespiteDropout) {
  Sequential model;
  util::Rng rng(5);
  model.add(std::make_unique<Dense>(4, 8, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dropout>(0.5f));
  model.add(std::make_unique<Dense>(8, 2, rng));
  const Tensor x = Tensor::randn({6, 4}, rng);
  const std::vector<std::int32_t> labels{0, 1, 0, 1, 0, 1};
  const LossResult a = model.evaluate(x, labels);
  const LossResult b = model.evaluate(x, labels);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Sequential, ZeroGradsClearsAll) {
  Sequential model = small_mlp(6);
  util::Rng rng(6);
  Sgd opt(0.01);
  const Tensor x = Tensor::randn({4, 8}, rng);
  model.train_batch(x, std::vector<std::int32_t>{0, 1, 2, 0}, opt, rng);
  model.zero_grads();
  for (Tensor* g : model.grads()) {
    for (float v : g->flat()) EXPECT_EQ(v, 0.0f);
  }
}

// --- model zoo -----------------------------------------------------------------

TEST(ModelZoo, MnistCnnShapesAtReducedGeometry) {
  const ImageGeometry g{1, 12, 12};
  Sequential model = mnist_cnn(g, 10, 1);
  util::Rng rng(1);
  PassContext ctx{};
  const Tensor y = model.forward(Tensor::randn({2, 1, 12, 12}, rng), ctx);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 10}));
}

TEST(ModelZoo, CifarCnnShapesAtReducedGeometry) {
  const ImageGeometry g{3, 12, 12};
  Sequential model = cifar_cnn(g, 10, 2);
  util::Rng rng(2);
  PassContext ctx{};
  const Tensor y = model.forward(Tensor::randn({2, 3, 12, 12}, rng), ctx);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 10}));
}

TEST(ModelZoo, FemnistCnnShapes) {
  const ImageGeometry g{1, 12, 12};
  Sequential model = femnist_cnn(g, 62, 3, /*hidden=*/64);
  util::Rng rng(3);
  PassContext ctx{};
  const Tensor y = model.forward(Tensor::randn({1, 1, 12, 12}, rng), ctx);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 62}));
}

TEST(ModelZoo, MnistCnnTrainsOnTinyBatch) {
  const ImageGeometry g{1, 10, 10};
  Sequential model = mnist_cnn(g, 4, 4);
  util::Rng rng(4);
  const Tensor x = Tensor::randn({8, 1, 10, 10}, rng);
  const std::vector<std::int32_t> labels{0, 1, 2, 3, 0, 1, 2, 3};
  RmsProp opt(0.005);
  const double initial = model.evaluate(x, labels).loss;
  for (int step = 0; step < 25; ++step) {
    model.train_batch(x, labels, opt, rng);
  }
  EXPECT_LT(model.evaluate(x, labels).loss, initial);
}

TEST(ModelZoo, Mlp2HasTwoHiddenLayers) {
  Sequential model = mlp2(10, 8, 6, 3, 5);
  // Flatten + 3 Dense + 2 ReLU = 6 layers.
  EXPECT_EQ(model.layer_count(), 6u);
  EXPECT_EQ(model.weight_count(),
            10u * 8 + 8 + 8u * 6 + 6 + 6u * 3 + 3);
}

TEST(ModelZoo, FactoriesInteroperateThroughFlatWeights) {
  // Two instances from the same factory must accept each other's weights —
  // the property FL weight exchange depends on.
  nn::ModelFactory factory = [](std::uint64_t seed) {
    return mlp(12, 5, 3, seed);
  };
  Sequential a = factory(1);
  Sequential b = factory(2);
  b.set_weights(a.weights());
  util::Rng rng(9);
  const Tensor x = Tensor::randn({3, 12}, rng);
  PassContext ctx{};
  const Tensor ya = a.forward(x, ctx);
  const Tensor yb = b.forward(x, ctx);
  EXPECT_EQ(tensor::max_abs_diff(ya, yb), 0.0f);
}

}  // namespace
}  // namespace tifl::nn
