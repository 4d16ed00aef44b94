#include "nn/conv2d.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/init.h"
#include "util/thread_pool.h"

namespace tifl::nn {

Conv2D::Conv2D(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, util::Rng& rng, std::int64_t stride,
               bool same_pad)
    : in_channels_(in_channels),
      kernel_(kernel),
      stride_(stride),
      same_pad_(same_pad),
      weight_(tensor::he_normal({out_channels, in_channels * kernel * kernel},
                                in_channels * kernel * kernel, rng)),
      bias_({out_channels}, 0.0f),
      dweight_({out_channels, in_channels * kernel * kernel}, 0.0f),
      dbias_({out_channels}, 0.0f) {}

tensor::ConvGeometry Conv2D::geometry_for(const Tensor& x) const {
  return tensor::ConvGeometry{
      .channels = in_channels_,
      .height = x.dim(2),
      .width = x.dim(3),
      .kernel_h = kernel_,
      .kernel_w = kernel_,
      .stride = stride_,
      .pad = same_pad_ ? (kernel_ - 1) / 2 : 0,
  };
}

Tensor Conv2D::forward(const Tensor& x, const PassContext& ctx) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2D: input must be [B," +
                                std::to_string(in_channels_) + ",H,W], got " +
                                tensor::shape_to_string(x.shape()));
  }
  if (ctx.training) {
    cached_input_ = x;
    need_input_grad_ = ctx.need_input_grad;
  }

  const tensor::ConvGeometry g = geometry_for(x);
  const std::int64_t batch = x.dim(0);
  const std::int64_t oc = out_channels();
  const std::int64_t spatial = g.col_cols();
  const std::int64_t rows = g.col_rows();
  const std::int64_t image_size = g.image_size();
  const float* bias = bias_.data();
  const bool relu = fused_relu_;

  Tensor y({batch, oc, g.out_h(), g.out_w()});
  for (std::int64_t b0 = 0; b0 < batch; b0 += kMaxSlabImages) {
    const std::int64_t nb = std::min(kMaxSlabImages, batch - b0);
    const std::int64_t slab_cols = nb * spatial;
    float* columns =
        ws_.acquire(kColumnsSlot,
                    static_cast<std::size_t>(rows * slab_cols)).data();
    tensor::im2col_batch(x.data() + b0 * image_size, nb, g, columns);

    // One slab-wide GEMM: out[OC, nb*S] = W[OC, R] * columns[R, nb*S].
    float* out =
        ws_.acquire(kStagingSlot,
                    static_cast<std::size_t>(oc * slab_cols)).data();
    tensor::gemm_nn_raw(weight_.data(), columns, out, oc, rows, slab_cols,
                        /*accumulate=*/false);

    // Epilogue scatter back to NCHW, fusing bias (and ReLU when this layer
    // absorbed the following activation).  Each (b, o) plane is written by
    // exactly one task.
    util::global_pool().parallel_for(
        0, static_cast<std::size_t>(nb), [&](std::size_t bi) {
          const std::int64_t b = static_cast<std::int64_t>(bi);
          for (std::int64_t o = 0; o < oc; ++o) {
            const float* src = out + o * slab_cols + b * spatial;
            float* dst = y.data() + ((b0 + b) * oc + o) * spatial;
            const float bv = bias[o];
            if (relu) {
              for (std::int64_t s = 0; s < spatial; ++s) {
                const float v = src[s] + bv;
                dst[s] = v > 0.0f ? v : 0.0f;
              }
            } else {
              for (std::int64_t s = 0; s < spatial; ++s) dst[s] = src[s] + bv;
            }
          }
        });
  }

  columns_valid_ = ctx.training && batch <= kMaxSlabImages;
  if (ctx.training && fused_relu_) cached_output_ = y;
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2D::backward before training forward");
  }
  const Tensor& x = cached_input_;
  const tensor::ConvGeometry g = geometry_for(x);
  const std::int64_t batch = x.dim(0);
  const std::int64_t oc = out_channels();
  const std::int64_t spatial = g.col_cols();
  const std::int64_t rows = g.col_rows();
  const std::int64_t image_size = g.image_size();

  Tensor dx;
  if (need_input_grad_) dx = Tensor(x.shape(), 0.0f);
  for (std::int64_t b0 = 0; b0 < batch; b0 += kMaxSlabImages) {
    const std::int64_t nb = std::min(kMaxSlabImages, batch - b0);
    const std::int64_t slab_cols = nb * spatial;
    float* columns =
        ws_.acquire(kColumnsSlot,
                    static_cast<std::size_t>(rows * slab_cols)).data();
    if (!columns_valid_) {
      tensor::im2col_batch(x.data() + b0 * image_size, nb, g, columns);
    }

    // Gather dY into [OC, nb*S] staging (the layout both gradient GEMMs
    // want), unmasking through the fused ReLU in the same pass.
    float* dy_t =
        ws_.acquire(kStagingSlot,
                    static_cast<std::size_t>(oc * slab_cols)).data();
    const bool relu = fused_relu_;
    const float* y = relu ? cached_output_.data() : nullptr;
    util::global_pool().parallel_for(
        0, static_cast<std::size_t>(nb), [&](std::size_t bi) {
          const std::int64_t b = static_cast<std::int64_t>(bi);
          for (std::int64_t o = 0; o < oc; ++o) {
            const float* src = dy.data() + ((b0 + b) * oc + o) * spatial;
            float* dst = dy_t + o * slab_cols + b * spatial;
            if (relu) {
              const float* yo = y + ((b0 + b) * oc + o) * spatial;
              for (std::int64_t s = 0; s < spatial; ++s) {
                dst[s] = yo[s] > 0.0f ? src[s] : 0.0f;
              }
            } else {
              for (std::int64_t s = 0; s < spatial; ++s) dst[s] = src[s];
            }
          }
        });

    // db += per-channel sums of dY (rows of the staging slab are
    // contiguous, batch-major within a row).
    for (std::int64_t o = 0; o < oc; ++o) {
      const float* row = dy_t + o * slab_cols;
      float acc = 0.0f;
      for (std::int64_t s = 0; s < slab_cols; ++s) acc += row[s];
      dbias_[o] += acc;
    }

    // dW += dY_t [OC, nb*S] * columns[R, nb*S]^T — one slab-wide gemm_nt.
    tensor::gemm_nt_raw(dy_t, columns, dweight_.data(), oc, slab_cols, rows,
                        /*accumulate=*/true);
    if (!need_input_grad_) continue;

    // dcol[R, nb*S] = W^T [R, OC] * dY_t [OC, nb*S]; then scatter per image.
    float* dcolumns =
        ws_.acquire(kDColumnsSlot,
                    static_cast<std::size_t>(rows * slab_cols)).data();
    tensor::gemm_tn_raw(weight_.data(), dy_t, dcolumns, rows, oc, slab_cols,
                        /*accumulate=*/false);
    tensor::col2im_batch(dcolumns, nb, g, dx.data() + b0 * image_size);
  }

  columns_valid_ = false;
  return dx;
}

}  // namespace tifl::nn
