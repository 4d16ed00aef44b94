#include "nn/sequential.h"

#include <cstring>
#include <stdexcept>

#include "nn/activations.h"

namespace tifl::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  fusion_planned_ = false;
  return *this;
}

void Sequential::set_fusion_enabled(bool enabled) {
  fusion_enabled_ = enabled;
  fusion_planned_ = false;
}

void Sequential::plan_fusion() {
  first_param_ = 0;
  while (first_param_ < layers_.size() &&
         layers_[first_param_]->params().empty()) {
    ++first_param_;
  }
  skip_.assign(layers_.size(), 0);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->set_fused_relu(false);
  }
  if (fusion_enabled_) {
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
      if (skip_[i] == 0 && layers_[i]->supports_relu_fusion() &&
          dynamic_cast<ReLU*>(layers_[i + 1].get()) != nullptr) {
        layers_[i]->set_fused_relu(true);
        skip_[i + 1] = 1;
      }
    }
  }
  fusion_planned_ = true;
}

Tensor Sequential::forward(const Tensor& x, const PassContext& ctx) {
  if (!fusion_planned_) plan_fusion();
  // Every layer past the first parameterized one feeds its dX to a
  // predecessor that learns, so only that first layer may drop it.
  PassContext inner = ctx;
  inner.need_input_grad = true;
  Tensor activation = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (skip_[i]) continue;
    activation =
        layers_[i]->forward(activation, i == first_param_ ? ctx : inner);
  }
  return activation;
}

LossResult Sequential::train_batch(const Tensor& x,
                                   std::span<const std::int32_t> labels,
                                   Optimizer& optimizer, util::Rng& rng) {
  PassContext ctx{.training = true, .rng = &rng, .need_input_grad = false};
  zero_grads();
  Tensor logits = forward(x, ctx);
  LossResult result = loss_.compute(logits, labels, /*with_grad=*/true);

  // Backward stops at the first layer with parameters: the layers before
  // it learn nothing, and it was told not to compute its own dX.
  Tensor grad = std::move(result.dlogits);
  for (std::size_t i = layers_.size(); i-- > first_param_;) {
    if (skip_[i]) continue;
    grad = layers_[i]->backward(grad);
  }

  const std::vector<Tensor*> ps = params();
  const std::vector<Tensor*> gs = grads();
  optimizer.step(ps, gs);
  return result;
}

LossResult Sequential::evaluate(const Tensor& x,
                                std::span<const std::int32_t> labels,
                                std::span<std::uint8_t> hits) {
  PassContext ctx{.training = false, .rng = nullptr};
  Tensor logits = forward(x, ctx);
  return loss_.compute(logits, labels, /*with_grad=*/false, hits);
}

std::size_t Sequential::weight_count() const {
  std::size_t count = 0;
  for (const auto& layer : layers_) {
    for (const Tensor* p :
         const_cast<Layer&>(*layer).params()) {  // params() is logically const
      count += static_cast<std::size_t>(p->numel());
    }
  }
  return count;
}

std::vector<float> Sequential::weights() const {
  std::vector<float> flat;
  flat.reserve(weight_count());
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).params()) {
      flat.insert(flat.end(), p->data(), p->data() + p->numel());
    }
  }
  return flat;
}

void Sequential::set_weights(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) {
      const std::size_t n = static_cast<std::size_t>(p->numel());
      if (offset + n > flat.size()) {
        throw std::invalid_argument("set_weights: flat vector too short");
      }
      std::memcpy(p->data(), flat.data() + offset, n * sizeof(float));
      offset += n;
    }
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("set_weights: flat vector too long");
  }
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

void Sequential::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

}  // namespace tifl::nn
