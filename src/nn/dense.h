// Fully connected layer: Y[B,O] = X[B,I] * W[I,O] + b[O].
//
// The bias add rides in the GEMM epilogue (no separate pass over Y), and
// when Sequential fuses a following ReLU into this layer the activation
// joins it there too; backward then unmasks the upstream gradient against
// the cached post-activation output (exact for ReLU).  A training forward
// whose PassContext clears need_input_grad makes backward skip the dX GEMM
// and return an empty tensor.
#pragma once

#include "nn/layer.h"

namespace tifl::nn {

class Dense final : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& x, const PassContext& ctx) override;
  Tensor backward(const Tensor& dy) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }
  bool supports_relu_fusion() const override { return true; }
  void set_fused_relu(bool fused) override { fused_relu_ = fused; }
  std::string name() const override { return "Dense"; }

  std::int64_t in_features() const { return weight_.dim(0); }
  std::int64_t out_features() const { return weight_.dim(1); }
  bool fused_relu() const { return fused_relu_; }

 private:
  Tensor weight_;   // [I, O]
  Tensor bias_;     // [O]
  Tensor dweight_;  // [I, O]
  Tensor dbias_;    // [O]
  Tensor cached_input_;   // [B, I]
  Tensor cached_output_;  // [B, O] (only when fused_relu_)
  bool fused_relu_ = false;
  bool need_input_grad_ = true;  // from the last training forward's ctx
};

}  // namespace tifl::nn
