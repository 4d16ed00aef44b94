// 2-D convolution (NCHW) lowered to batch-level im2col + GEMM.
//
// The whole input batch is gathered into one [C*K*K, N*OH*OW] column slab
// and each pass runs a single wide GEMM per layer — not a GEMM per image —
// so the blocked kernel amortizes its packing across the batch and sees
// matrices wide enough to tile.  Weights are stored pre-flattened as
// [OC, C*KH*KW].
//
// Scratch (column slab, gradient slab, GEMM staging) lives in a per-layer
// tensor::Workspace: buffers grow to their high-water mark on the first
// pass and are reused verbatim afterwards, so steady-state training
// allocates nothing here.  Slabs are capped at kMaxSlabImages images per
// GEMM so huge evaluation batches cannot balloon memory; training batches
// fit in one slab.
//
// A training forward whose PassContext clears need_input_grad makes
// backward skip the column-gradient GEMM, col2im and the zeroed dX, and
// return an empty tensor.
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace tifl::nn {

class Conv2D final : public Layer {
 public:
  // Largest number of images lowered into one column slab (and one GEMM).
  static constexpr std::int64_t kMaxSlabImages = 32;

  // `same_pad` pads so output spatial size equals input (stride 1);
  // otherwise valid (no) padding is used.
  Conv2D(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, util::Rng& rng, std::int64_t stride = 1,
         bool same_pad = false);

  Tensor forward(const Tensor& x, const PassContext& ctx) override;
  Tensor backward(const Tensor& dy) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }
  bool supports_relu_fusion() const override { return true; }
  void set_fused_relu(bool fused) override { fused_relu_ = fused; }
  std::string name() const override { return "Conv2D"; }

  std::int64_t out_channels() const { return weight_.dim(0); }
  bool fused_relu() const { return fused_relu_; }
  const tensor::Workspace& workspace() const { return ws_; }

 private:
  // Workspace slots.
  static constexpr std::size_t kColumnsSlot = 0;   // im2col slab
  static constexpr std::size_t kDColumnsSlot = 1;  // column-gradient slab
  static constexpr std::size_t kStagingSlot = 2;   // GEMM out / dY^T staging

  tensor::ConvGeometry geometry_for(const Tensor& x) const;

  std::int64_t in_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  bool same_pad_;
  bool fused_relu_ = false;
  bool need_input_grad_ = true;  // from the last training forward's ctx

  Tensor weight_;   // [OC, C*K*K]
  Tensor bias_;     // [OC]
  Tensor dweight_;
  Tensor dbias_;

  Tensor cached_input_;   // [B, C, H, W] (training forward)
  Tensor cached_output_;  // [B, OC, OH, OW] (only when fused_relu_)
  // True while the column slab in ws_ still holds im2col(cached_input_)
  // from the training forward, letting backward skip regathering.
  bool columns_valid_ = false;

  tensor::Workspace ws_;
};

}  // namespace tifl::nn
