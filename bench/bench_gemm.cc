// GEMM / conv compute-core microbenchmark.
//
// Two measurements feed the perf trajectory in BENCH_gemm.json:
//
//  1. Kernel GFLOP/s for the blocked/packed GEMM vs. the seed's scalar
//     loops (gemm_*_ref), over paper-relevant shapes: the 256^3 headline
//     plus the actual layer shapes of the Fig. 5 MNIST CNN at batch 10
//     (conv forward slabs, conv dW/dcol gradients, dense layers) and of
//     the per-client MLPs the FL engines train (small-GEMM path).
//
//  2. End-to-end wall-clock of one CNN local-training step
//     (mnist_cnn.train_batch on a [10,1,28,28] batch) against a faithful
//     in-bench reimplementation of the seed's layers: per-image im2col
//     with freshly allocated column buffers, scalar GEMMs, separate
//     bias/ReLU passes.
//
// The numbers depend on the vector ISA the kernels run, so the JSON
// records it: the compiler id in bench_tifl's format (version plus
// optimisation and ISA macros: the flags the library was built with), the
// leaf kernels this process selected at run time (tensor::gemm_kernel_isa:
// their ISA, kNR and vector width), the CPU model and the pool's thread
// count.
//
// Flags: --smoke (CI-sized reps), --reps N, --json PATH, --batch N.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "obs/metrics.h"
#include "nn/layer.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tifl_bench/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tifl::bench {
namespace {

using tensor::Tensor;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// JSON string literal for the compiler id and CPU model.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

// Runs `fn` on a pool worker thread, where nested dispatch degrades to
// serial: every number this bench reports is a true single-thread
// measurement regardless of the machine's core count (the seed reference
// kernels are serial by construction; this pins the new kernels too).
double run_single_thread(const std::function<double()>& fn) {
  double out = 0.0;
  util::global_pool().submit([&] { out = fn(); }).get();
  return out;
}

// --- seed-layer replicas ----------------------------------------------------
// Copies of the layer implementations the seed shipped, kept here as the
// "before" side of the end-to-end comparison: per-image loops, fresh
// scratch vectors every call, scalar reference GEMMs, separate bias pass.

class SeedConv2D final : public nn::Layer {
 public:
  SeedConv2D(std::int64_t in_channels, std::int64_t out_channels,
             std::int64_t kernel, util::Rng& rng)
      : in_channels_(in_channels),
        kernel_(kernel),
        weight_(tensor::he_normal({out_channels, in_channels * kernel * kernel},
                                  in_channels * kernel * kernel, rng)),
        bias_({out_channels}, 0.0f),
        dweight_({out_channels, in_channels * kernel * kernel}, 0.0f),
        dbias_({out_channels}, 0.0f) {}

  Tensor forward(const Tensor& x, const nn::PassContext& ctx) override {
    if (ctx.training) cached_input_ = x;
    const tensor::ConvGeometry g = geometry_for(x);
    const std::int64_t batch = x.dim(0);
    const std::int64_t oc = weight_.dim(0);
    const std::int64_t spatial = g.col_cols();
    Tensor y({batch, oc, g.out_h(), g.out_w()});
    std::vector<float> columns(
        static_cast<std::size_t>(g.col_rows() * spatial));
    const std::int64_t image_size = g.image_size();
    for (std::int64_t b = 0; b < batch; ++b) {
      tensor::im2col(x.data() + b * image_size, g, columns.data());
      float* out = y.data() + b * oc * spatial;
      tensor::gemm_nn_ref(weight_.data(), columns.data(), out, oc,
                          g.col_rows(), spatial, /*accumulate=*/false);
      for (std::int64_t o = 0; o < oc; ++o) {
        const float bv = bias_[o];
        float* plane = out + o * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) plane[s] += bv;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& dy) override {
    const Tensor& x = cached_input_;
    const tensor::ConvGeometry g = geometry_for(x);
    const std::int64_t batch = x.dim(0);
    const std::int64_t oc = weight_.dim(0);
    const std::int64_t spatial = g.col_cols();
    const std::int64_t image_size = g.image_size();
    Tensor dx(x.shape(), 0.0f);
    std::vector<float> columns(
        static_cast<std::size_t>(g.col_rows() * spatial));
    std::vector<float> dcolumns(columns.size());
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* dy_b = dy.data() + b * oc * spatial;
      tensor::im2col(x.data() + b * image_size, g, columns.data());
      tensor::gemm_nt_ref(dy_b, columns.data(), dweight_.data(), oc, spatial,
                          g.col_rows(), /*accumulate=*/true);
      for (std::int64_t o = 0; o < oc; ++o) {
        const float* plane = dy_b + o * spatial;
        float acc = 0.0f;
        for (std::int64_t s = 0; s < spatial; ++s) acc += plane[s];
        dbias_[o] += acc;
      }
      tensor::gemm_tn_ref(weight_.data(), dy_b, dcolumns.data(), g.col_rows(),
                          oc, spatial, /*accumulate=*/false);
      tensor::col2im(dcolumns.data(), g, dx.data() + b * image_size);
    }
    return dx;
  }

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }
  std::string name() const override { return "SeedConv2D"; }

 private:
  tensor::ConvGeometry geometry_for(const Tensor& x) const {
    return tensor::ConvGeometry{.channels = in_channels_,
                                .height = x.dim(2),
                                .width = x.dim(3),
                                .kernel_h = kernel_,
                                .kernel_w = kernel_,
                                .stride = 1,
                                .pad = 0};
  }

  std::int64_t in_channels_;
  std::int64_t kernel_;
  Tensor weight_, bias_, dweight_, dbias_, cached_input_;
};

class SeedDense final : public nn::Layer {
 public:
  SeedDense(std::int64_t in_features, std::int64_t out_features,
            util::Rng& rng)
      : weight_(
            tensor::he_normal({in_features, out_features}, in_features, rng)),
        bias_({out_features}, 0.0f),
        dweight_({in_features, out_features}, 0.0f),
        dbias_({out_features}, 0.0f) {}

  Tensor forward(const Tensor& x, const nn::PassContext& ctx) override {
    if (ctx.training) cached_input_ = x;
    Tensor y({x.dim(0), weight_.dim(1)});
    tensor::gemm_nn_ref(x.data(), weight_.data(), y.data(), x.dim(0),
                        weight_.dim(0), weight_.dim(1), false);
    tensor::add_row_bias(y, bias_);
    return y;
  }

  Tensor backward(const Tensor& dy) override {
    tensor::gemm_tn_ref(cached_input_.data(), dy.data(), dweight_.data(),
                        weight_.dim(0), cached_input_.dim(0), weight_.dim(1),
                        true);
    Tensor col_sum({weight_.dim(1)});
    tensor::column_sums(dy, col_sum);
    tensor::axpy(1.0f, col_sum, dbias_);
    Tensor dx({dy.dim(0), weight_.dim(0)});
    tensor::gemm_nt_ref(dy.data(), weight_.data(), dx.data(), dy.dim(0),
                        weight_.dim(1), weight_.dim(0), false);
    return dx;
  }

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }
  std::string name() const override { return "SeedDense"; }

 private:
  Tensor weight_, bias_, dweight_, dbias_, cached_input_;
};

// The Fig. 5 MNIST CNN rebuilt from seed layers (same architecture and
// init order as nn::mnist_cnn, so both models start from identical
// weights).
nn::Sequential seed_mnist_cnn(const nn::ImageGeometry& g, std::int64_t classes,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential model;
  model.add(std::make_unique<SeedConv2D>(g.channels, 32, 3, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<SeedConv2D>(32, 64, 3, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::MaxPool2D>(2));
  model.add(std::make_unique<nn::Dropout>(0.25f));
  model.add(std::make_unique<nn::Flatten>());
  const std::int64_t h = (g.height - 4) / 2;
  const std::int64_t w = (g.width - 4) / 2;
  model.add(std::make_unique<SeedDense>(64 * h * w, 128, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::Dropout>(0.5f));
  model.add(std::make_unique<SeedDense>(128, classes, rng));
  return model;
}

// --- kernel sweep -----------------------------------------------------------

enum class Kind { kNN, kNT, kTN };

struct ShapeCase {
  const char* name;
  Kind kind;
  std::int64_t m, k, n;
};

struct ShapeResult {
  ShapeCase shape;
  double gflops_new = 0.0;
  double gflops_seed = 0.0;
  double speedup = 0.0;
};

void run_kernel(Kind kind, bool seed_kernel, const float* a, const float* b,
                float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  switch (kind) {
    case Kind::kNN:
      seed_kernel ? tensor::gemm_nn_ref(a, b, c, m, k, n, false)
                  : tensor::gemm_nn_raw(a, b, c, m, k, n, false);
      break;
    case Kind::kNT:
      seed_kernel ? tensor::gemm_nt_ref(a, b, c, m, k, n, false)
                  : tensor::gemm_nt_raw(a, b, c, m, k, n, false);
      break;
    case Kind::kTN:
      seed_kernel ? tensor::gemm_tn_ref(a, b, c, m, k, n, false)
                  : tensor::gemm_tn_raw(a, b, c, m, k, n, false);
      break;
  }
}

double time_kernel(Kind kind, bool seed_kernel, const float* a, const float* b,
                   float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                   double target_seconds) {
  return run_single_thread([&] {
    run_kernel(kind, seed_kernel, a, b, c, m, k, n);  // warm-up
    double t0 = now_seconds();
    run_kernel(kind, seed_kernel, a, b, c, m, k, n);
    const double once = std::max(1e-7, now_seconds() - t0);
    const int reps =
        static_cast<int>(std::clamp(target_seconds / once, 1.0, 2000.0));
    t0 = now_seconds();
    for (int r = 0; r < reps; ++r) {
      run_kernel(kind, seed_kernel, a, b, c, m, k, n);
    }
    const double elapsed = now_seconds() - t0;
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(k) * static_cast<double>(n) *
                         reps;
    return flops / elapsed / 1e9;
  });
}

ShapeResult bench_shape(const ShapeCase& shape, double target_seconds,
                        util::Rng& rng) {
  // Operand extents: a is [m,k] (nn/nt) or [k,m] (tn); b is [k,n] (nn/tn)
  // or [n,k] (nt).  All row-major dense, so one buffer per operand works
  // for every kind.
  const std::int64_t an = shape.m * shape.k;
  const std::int64_t bn = shape.k * shape.n;
  std::vector<float> a(static_cast<std::size_t>(an));
  std::vector<float> b(static_cast<std::size_t>(bn));
  std::vector<float> c(static_cast<std::size_t>(shape.m * shape.n));
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());

  ShapeResult result{.shape = shape};
  result.gflops_new = time_kernel(shape.kind, false, a.data(), b.data(),
                                  c.data(), shape.m, shape.k, shape.n,
                                  target_seconds);
  result.gflops_seed = time_kernel(shape.kind, true, a.data(), b.data(),
                                   c.data(), shape.m, shape.k, shape.n,
                                   target_seconds);
  result.speedup = result.gflops_new / result.gflops_seed;
  return result;
}

// --- CNN training step ------------------------------------------------------

struct StepResult {
  double ms_seed = 0.0;
  double ms_new = 0.0;
  double speedup = 0.0;
  std::int64_t batch = 0;
};

double time_train_steps(nn::Sequential& model, const Tensor& x,
                        std::span<const std::int32_t> labels, int reps) {
  return run_single_thread([&] {
    nn::Sgd opt(0.01);
    util::Rng rng(99);
    model.train_batch(x, labels, opt, rng);  // warm-up (and scratch growth)
    const double t0 = now_seconds();
    for (int r = 0; r < reps; ++r) model.train_batch(x, labels, opt, rng);
    return (now_seconds() - t0) / reps * 1e3;
  });
}

StepResult bench_cnn_step(std::int64_t batch, int reps) {
  const nn::ImageGeometry geo{.channels = 1, .height = 28, .width = 28};
  nn::Sequential fast = nn::mnist_cnn(geo, 10, /*seed=*/3);
  nn::Sequential seed = seed_mnist_cnn(geo, 10, /*seed=*/3);

  util::Rng rng(17);
  Tensor x = Tensor::randn({batch, 1, 28, 28}, rng);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(batch));
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(10));
  }

  StepResult result;
  result.batch = batch;
  result.ms_new = time_train_steps(fast, x, labels, reps);
  result.ms_seed = time_train_steps(seed, x, labels, reps);
  result.speedup = result.ms_seed / result.ms_new;
  return result;
}

}  // namespace
}  // namespace tifl::bench

int main(int argc, char** argv) {
  using namespace tifl;
  using namespace tifl::bench;

  bool smoke = false;
  std::string json_path = "BENCH_gemm.json";
  int step_reps = 0;
  std::int64_t batch = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      step_reps = std::atoi(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_gemm [--smoke] [--json PATH] [--reps N] "
                   "[--batch N]\n");
      return 2;
    }
  }
  const double target_seconds = smoke ? 0.02 : 0.25;
  if (step_reps == 0) step_reps = smoke ? 2 : 10;

  // Fig. 5 MNIST CNN layer shapes at batch 10 (28x28 inputs): conv slabs
  // are [OC, C*K*K] x [C*K*K, B*OH*OW]; dense layers are [B, I] x [I, O].
  const std::int64_t slab1 = batch * 26 * 26;
  const std::int64_t slab2 = batch * 24 * 24;
  const ShapeCase shapes[] = {
      {"square_256_nn", Kind::kNN, 256, 256, 256},
      {"square_256_nt", Kind::kNT, 256, 256, 256},
      {"square_256_tn", Kind::kTN, 256, 256, 256},
      {"conv1_fwd", Kind::kNN, 32, 9, slab1},
      {"conv2_fwd", Kind::kNN, 64, 288, slab2},
      {"conv2_dw", Kind::kNT, 64, slab2, 288},
      {"conv2_dcol", Kind::kTN, 288, 64, slab2},
      {"dense1_fwd", Kind::kNN, batch, 9216, 128},
      {"dense1_dw", Kind::kTN, 9216, batch, 128},
      // Per-client MLP training steps (all on the small path):
      // scale_1m_churn's MLP-16 (6x6 inputs, 4 classes) and hier4_ckpt's
      // MLP-48 (8x8 inputs, 10 classes).  dx1 is the input gradient that
      // train_batch no longer computes, kept as an nt data point.
      {"mlp16_fwd1", Kind::kNN, batch, 36, 16},
      {"mlp16_fwd2", Kind::kNN, batch, 16, 4},
      {"mlp16_dw1", Kind::kTN, 36, batch, 16},
      {"mlp16_dw2", Kind::kTN, 16, batch, 4},
      {"mlp16_dx2", Kind::kNT, batch, 4, 16},
      {"mlp16_dx1", Kind::kNT, batch, 16, 36},
      {"mlp48_fwd1", Kind::kNN, batch, 64, 48},
      {"mlp48_fwd2", Kind::kNN, batch, 48, 10},
      {"mlp48_dw1", Kind::kTN, 64, batch, 48},
      {"mlp48_dw2", Kind::kTN, 48, batch, 10},
      {"mlp48_dx2", Kind::kNT, batch, 10, 48},
      {"mlp48_dx1", Kind::kNT, batch, 48, 64},
  };

  const std::string compiler = tifl_bench::compiler_id();
  const std::string cpu = tifl_bench::cpu_model();
  const std::size_t threads = tifl_bench::pool_threads();
  const tensor::GemmIsa isa = tensor::gemm_kernel_isa();
  std::printf(
      "# %s, %s kernels, kNR %lld, %lld-byte vectors, %s, %zu pool "
      "threads\n",
      compiler.c_str(), isa.name, static_cast<long long>(isa.nr),
      static_cast<long long>(isa.vec_bytes), cpu.c_str(), threads);

  util::Rng rng(42);
  std::vector<ShapeResult> results;
  std::printf("%-16s %10s %10s %14s %14s %8s\n", "shape", "kind",
              "m,k,n", "new GFLOP/s", "seed GFLOP/s", "speedup");
  for (const ShapeCase& shape : shapes) {
    ShapeResult r = bench_shape(shape, target_seconds, rng);
    const char* kind = shape.kind == Kind::kNN   ? "nn"
                       : shape.kind == Kind::kNT ? "nt"
                                                 : "tn";
    std::printf("%-16s %10s %4lld,%5lld,%6lld %11.2f %14.2f %7.2fx\n",
                shape.name, kind, static_cast<long long>(shape.m),
                static_cast<long long>(shape.k),
                static_cast<long long>(shape.n), r.gflops_new, r.gflops_seed,
                r.speedup);
    results.push_back(r);
  }

  StepResult step = bench_cnn_step(batch, step_reps);
  std::printf(
      "\nmnist_cnn train_batch (batch %lld): seed %.1f ms/step, "
      "new %.1f ms/step, speedup %.2fx\n",
      static_cast<long long>(step.batch), step.ms_seed, step.ms_new,
      step.speedup);

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"gemm\",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"compiler\": " << quoted(compiler)
       << ",\n  \"kernel_isa\": " << quoted(isa.name)
       << ",\n  \"knr\": " << isa.nr
       << ",\n  \"vec_bytes\": " << isa.vec_bytes
       << ",\n  \"cpu\": " << quoted(cpu)
       << ",\n  \"pool_threads\": " << threads << ",\n  \"gemm\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    const char* kind = r.shape.kind == Kind::kNN   ? "nn"
                       : r.shape.kind == Kind::kNT ? "nt"
                                                   : "tn";
    json << "    {\"name\": \"" << r.shape.name << "\", \"kind\": \"" << kind
         << "\", \"m\": " << r.shape.m << ", \"k\": " << r.shape.k
         << ", \"n\": " << r.shape.n << ", \"gflops_new\": " << r.gflops_new
         << ", \"gflops_seed\": " << r.gflops_seed
         << ", \"speedup\": " << r.speedup << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"cnn_step\": {\"model\": \"mnist_cnn\", \"batch\": "
       << step.batch << ", \"ms_seed\": " << step.ms_seed
       << ", \"ms_new\": " << step.ms_new << ", \"speedup\": " << step.speedup
       << "},\n  \"metrics\": " << obs::Registry::global().to_json() << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
