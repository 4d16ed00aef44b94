// Softmax cross-entropy with integer labels — the classification loss for
// every model in the paper.  Fusing softmax with the loss gives the usual
// numerically clean gradient (probs - onehot) / batch.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.h"

namespace tifl::nn {

struct LossResult {
  double loss = 0.0;        // mean negative log-likelihood
  double accuracy = 0.0;    // fraction of argmax hits
  tensor::Tensor dlogits;   // gradient w.r.t. logits, [B, C]
};

class SoftmaxCrossEntropy {
 public:
  // logits: [B, C]; labels: B class ids in [0, C).
  // `with_grad` skips the gradient for evaluation-only passes.  A row is a
  // hit when its argmax is its label; a row with a non-finite probability
  // (from a NaN or +inf logit) is a miss, and the loss is left NaN.  When
  // `hits` is non-empty it must hold B entries and receives each row's hit
  // flag (1 or 0), so callers can score any subset of rows from one pass.
  // A non-empty `log_probs` must hold B entries too and receives each
  // row's log(max(p_label, 1e-12f)): the loss is minus their sum, taken
  // from 0.0 in row order, over B.
  LossResult compute(const tensor::Tensor& logits,
                     std::span<const std::int32_t> labels,
                     bool with_grad = true,
                     std::span<std::uint8_t> hits = {},
                     std::span<float> log_probs = {}) const;
};

}  // namespace tifl::nn
