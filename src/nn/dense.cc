#include "nn/dense.h"

#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace tifl::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features,
             util::Rng& rng)
    : weight_(tensor::he_normal({in_features, out_features}, in_features, rng)),
      bias_({out_features}, 0.0f),
      dweight_({in_features, out_features}, 0.0f),
      dbias_({out_features}, 0.0f) {}

Tensor Dense::forward(const Tensor& x, const PassContext& ctx) {
  if (x.rank() != 2 || x.dim(1) != in_features()) {
    throw std::invalid_argument("Dense: input must be [B, " +
                                std::to_string(in_features()) + "], got " +
                                tensor::shape_to_string(x.shape()));
  }
  if (ctx.training) {
    cached_input_ = x;
    need_input_grad_ = ctx.need_input_grad;
  }
  Tensor y({x.dim(0), out_features()});
  tensor::Epilogue epilogue;
  epilogue.bias_n = bias_.data();
  epilogue.relu = fused_relu_;
  tensor::gemm_nn(x, weight_, y, /*accumulate=*/false, epilogue);
  if (ctx.training && fused_relu_) cached_output_ = y;
  return y;
}

Tensor Dense::backward(const Tensor& dy) {
  if (cached_input_.empty()) {
    throw std::logic_error("Dense::backward before training forward");
  }
  // With a fused ReLU, first unmask dY through the cached activation.
  Tensor masked;
  const Tensor* dy_eff = &dy;
  if (fused_relu_) {
    masked = Tensor(dy.shape());
    tensor::relu_backward_from_output(cached_output_, dy, masked);
    dy_eff = &masked;
  }

  // dW += X^T dY; db += column sums of dY; dX = dY W^T.
  tensor::gemm_tn(cached_input_, *dy_eff, dweight_, /*accumulate=*/true);
  Tensor col_sum({out_features()});
  tensor::column_sums(*dy_eff, col_sum);
  tensor::axpy(1.0f, col_sum, dbias_);

  if (!need_input_grad_) return {};
  Tensor dx({dy.dim(0), in_features()});
  tensor::gemm_nt(*dy_eff, weight_, dx);
  return dx;
}

}  // namespace tifl::nn
