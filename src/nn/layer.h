// Layer abstraction for the from-scratch training stack.
//
// Contract: `forward` caches whatever the matching `backward` needs (the
// usual define-by-run discipline); `backward` consumes the upstream
// gradient and returns the input gradient (empty when the training
// forward's PassContext said it is not needed), accumulating parameter
// gradients into the tensors exposed by `grads()` (which `zero_grads()`
// clears).  Layers own their parameters; the FL weight exchange flattens
// them via Sequential.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace tifl::nn {

using tensor::Tensor;

// Per-pass context: training toggles dropout, `rng` feeds stochastic
// layers so a whole forward pass is reproducible from the caller's seed.
//
// `need_input_grad` says whether the caller will use the input gradient
// that the matching backward returns.  A layer that reads it (Dense,
// Conv2D) records it on a training forward; when it is false, backward
// still accumulates the parameter gradients but skips computing dX and
// returns an empty tensor.  It defaults to true, so a layer driven on its
// own always returns dX.  The one caller that clears it is
// Sequential::forward when its own context clears it (train_batch does):
// it hands false to the first layer that has parameters only, because no
// layer before that one has anything to learn — the backward pass stops
// there — and every later layer's dX feeds its predecessor.  Carrying the
// signal in the context rather than a Layer virtual lets wrapper layers
// that forward `ctx` unchanged pass it through without knowing of it.
struct PassContext {
  bool training = false;
  util::Rng* rng = nullptr;
  bool need_input_grad = true;
};

class Layer {
 public:
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual Tensor forward(const Tensor& x, const PassContext& ctx) = 0;
  virtual Tensor backward(const Tensor& dy) = 0;

  // Parameter/gradient views in a fixed order; empty for stateless layers.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  // ReLU epilogue fusion (Sequential's fusion pass): a layer that supports
  // it applies ReLU inside its own forward epilogue — and unmasks the
  // upstream gradient in backward — letting the container skip the
  // following ReLU layer entirely.  Numerically identical to the unfused
  // pipeline: same adds in the same order, and the output-based gradient
  // mask (y > 0 iff x > 0 for ReLU) matches the input-based one bit for
  // bit.
  virtual bool supports_relu_fusion() const { return false; }
  virtual void set_fused_relu(bool) {}

  virtual std::string name() const = 0;

  void zero_grads() {
    for (Tensor* g : grads()) g->fill(0.0f);
  }

 protected:
  Layer() = default;
};

}  // namespace tifl::nn
