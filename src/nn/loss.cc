#include "nn/loss.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/ops.h"

namespace tifl::nn {

LossResult SoftmaxCrossEntropy::compute(const tensor::Tensor& logits,
                                        std::span<const std::int32_t> labels,
                                        bool with_grad,
                                        std::span<std::uint8_t> hits,
                                        std::span<float> log_probs) const {
  if (logits.rank() != 2) {
    throw std::invalid_argument("SoftmaxCrossEntropy: want [B, C] logits");
  }
  const std::int64_t batch = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  if (static_cast<std::int64_t>(labels.size()) != batch) {
    throw std::invalid_argument("SoftmaxCrossEntropy: label count mismatch");
  }
  if (!hits.empty() && static_cast<std::int64_t>(hits.size()) != batch) {
    throw std::invalid_argument("SoftmaxCrossEntropy: hit flag count mismatch");
  }
  if (!log_probs.empty() &&
      static_cast<std::int64_t>(log_probs.size()) != batch) {
    throw std::invalid_argument(
        "SoftmaxCrossEntropy: log-probability count mismatch");
  }

  tensor::Tensor probs(logits.shape());
  tensor::softmax_rows(logits, probs);

  LossResult result;
  double loss = 0.0;
  std::int64_t hit_count = 0;
  for (std::int64_t b = 0; b < batch; ++b) {
    const std::int32_t label = labels[static_cast<std::size_t>(b)];
    if (label < 0 || label >= classes) {
      throw std::out_of_range("SoftmaxCrossEntropy: label " +
                              std::to_string(label) + " out of range for " +
                              std::to_string(classes) + " classes");
    }
    const float* row = probs.data() + b * classes;
    const float log_prob = std::log(std::max(row[label], 1e-12f));
    loss -= log_prob;
    if (!log_probs.empty()) log_probs[static_cast<std::size_t>(b)] = log_prob;
    // One NaN or +inf logit turns the whole row NaN, and nothing compares
    // greater than NaN: without the finiteness check such a row would
    // read as a class-0 prediction.
    bool finite = std::isfinite(row[0]);
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      finite = finite && std::isfinite(row[c]);
      if (row[c] > row[best]) best = c;
    }
    const bool hit = finite && best == label;
    if (hit) ++hit_count;
    if (!hits.empty()) hits[static_cast<std::size_t>(b)] = hit ? 1 : 0;
  }
  result.loss = loss / static_cast<double>(batch);
  result.accuracy =
      static_cast<double>(hit_count) / static_cast<double>(batch);

  if (with_grad) {
    // dL/dlogits = (softmax - onehot) / B
    const float inv_batch = 1.0f / static_cast<float>(batch);
    result.dlogits = std::move(probs);
    for (std::int64_t b = 0; b < batch; ++b) {
      float* row = result.dlogits.data() + b * classes;
      row[labels[static_cast<std::size_t>(b)]] -= 1.0f;
      for (std::int64_t c = 0; c < classes; ++c) row[c] *= inv_batch;
    }
  }
  return result;
}

}  // namespace tifl::nn
