// Sequential container: the model type every paper architecture is built
// from, plus the flat weight-vector view used for FedAvg exchange.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace tifl::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  // ReLU-epilogue fusion (on by default): Dense/Conv2D layers immediately
  // followed by a ReLU absorb the activation into their GEMM epilogue and
  // the ReLU layer is skipped in forward/backward.  Bitwise identical to
  // the unfused pipeline (same adds in the same order); the toggle exists
  // so tests can assert exactly that.
  void set_fusion_enabled(bool enabled);

  // `ctx.need_input_grad` is the caller's: false means nobody will ask for
  // the gradient w.r.t. `x`, so the first layer with parameters skips its
  // dX.  Every other layer is told to keep computing its dX.
  Tensor forward(const Tensor& x, const PassContext& ctx);

  // One optimization step on a mini-batch: forward, loss, backward, update.
  // Returns loss/accuracy on the batch (pre-update).  Backward runs down to
  // the first layer with parameters and stops there, without its dX.
  LossResult train_batch(const Tensor& x,
                         std::span<const std::int32_t> labels,
                         Optimizer& optimizer, util::Rng& rng);

  // Inference-mode loss/accuracy (dropout off, no gradient).  A non-empty
  // `hits` receives one hit flag per row (SoftmaxCrossEntropy::compute).
  LossResult evaluate(const Tensor& x, std::span<const std::int32_t> labels,
                      std::span<std::uint8_t> hits = {});

  // --- FL weight exchange -------------------------------------------------
  std::size_t weight_count() const;
  // Concatenation of every parameter tensor, in layer order.
  std::vector<float> weights() const;
  void set_weights(std::span<const float> flat);

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  void zero_grads();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  // Recomputes skip_ and first_param_; rerun after add() or a toggle.
  void plan_fusion();

  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
  std::vector<std::uint8_t> skip_;  // layer fused into its predecessor
  std::size_t first_param_ = 0;     // first layer with parameters
  bool fusion_enabled_ = true;
  bool fusion_planned_ = false;
};

// Builds a fresh model instance (used per client / per thread).  Models
// built by the same factory must agree in architecture so their flat
// weight vectors are interchangeable.
using ModelFactory = std::function<Sequential(std::uint64_t seed)>;

}  // namespace tifl::nn
