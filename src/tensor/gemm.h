// General matrix multiply kernels for the NN layers.
//
// Three layout variants cover every use in forward/backward passes without
// ever materializing a transpose:
//   gemm_nn : C[M,N] += A[M,K]   * B[K,N]     (dense/conv forward)
//   gemm_nt : C[M,N] += A[M,K]   * B[N,K]^T   (dX = dY * W^T, conv dW)
//   gemm_tn : C[M,N] += A[K,M]^T * B[K,N]     (dW = X^T * dY, conv dcol)
//
// All three are thin wrappers over one cache-blocked, packed core (see
// pack.h for the blocking scheme): operands are repacked into contiguous
// zero-padded panels and streamed through a register-tiled kMR x kNR
// microkernel with branch-free, auto-vectorizable inner loops.  Shapes
// packing cannot amortize take a row-streaming kernel instead (pack.h).
// Tiny problems below kSmallGemmLimit — the per-client MLP layers of the
// FL engines — stream rows serially with j innermost (vectorized), yet
// bit-identical to a scalar dot product per element: a sum from +0.0f
// over p ascending, merged as c + sum when accumulating.
//
// Threading: the core tiles rows (or, for short-wide problems, column
// panels) of C across the global thread pool, the calling thread taking
// a share, when called from the top level.  When the caller is already
// inside a parallel region — a pool worker, or a thread running its own
// share of a parallel_for, as in per-client training in the FL engines —
// dispatch degrades to the serial kernels.  Each output element is
// written by exactly one chunk and its K-reduction order is fixed by the
// constant kKC blocking, so results are bit-identical across pool sizes,
// chunkings and threads (and to the serial run).
//
// Epilogue fusion: forward paths can fold the bias add and a ReLU into the
// final K-block's writeback instead of making separate passes over C.
//
// Vector ISA: the leaf kernels under the three paths exist once per
// vector ISA the build carries, and a process runs the widest one its CPU
// supports, picked once from CPUID; every one computes the same bytes
// (see gemm_kernels.h).  gemm_kernel_isa() names the one that runs.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace tifl::tensor {

// Optional fused writeback applied to C after the last K block.  Only
// meaningful when the GEMM overwrites or finalizes C (forward passes);
// gradient accumulation calls leave it empty.
struct Epilogue {
  const float* bias_m = nullptr;  // length M: added to every element of row i
  const float* bias_n = nullptr;  // length N: added to every element of col j
  bool relu = false;              // clamp negatives after the bias add

  bool active() const noexcept {
    return bias_m != nullptr || bias_n != nullptr || relu;
  }
};

// When `accumulate` is false, C is overwritten; otherwise added to.
void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c,
             bool accumulate = false, const Epilogue& epilogue = {});
void gemm_nt(const Tensor& a, const Tensor& b_t, Tensor& c,
             bool accumulate = false, const Epilogue& epilogue = {});
void gemm_tn(const Tensor& a_t, const Tensor& b, Tensor& c,
             bool accumulate = false, const Epilogue& epilogue = {});

// The leaf kernels this process runs.
struct GemmIsa {
  const char* name;        // "sse2", "avx2", "avx512", ...
  std::int64_t nr;         // microtile width kNR
  std::int64_t vec_bytes;  // vector register width
};
GemmIsa gemm_kernel_isa();

// Raw-pointer cores used by conv2d's batch im2col path (matrices that are
// views into workspace slabs rather than Tensors).
void gemm_nn_raw(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue = {});
void gemm_nt_raw(const float* a, const float* b_t, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue = {});
void gemm_tn_raw(const float* a_t, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue = {});

// Reference kernels: the seed's scalar loop nests, kept for equivalence
// tests and as the baseline the bench_gemm speedup numbers are measured
// against.  Serial, unblocked, unpacked.
void gemm_nn_ref(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate);
void gemm_nt_ref(const float* a, const float* b_t, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate);
void gemm_tn_ref(const float* a_t, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate);

}  // namespace tifl::tensor
