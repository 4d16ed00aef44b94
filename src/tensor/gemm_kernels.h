// The GEMM leaf kernels as one table per vector ISA.
//
// gemm.cc keeps everything that does not depend on the vector ISA: the
// small/stream/blocked path choice and its thresholds (pack.h), the
// thread fan-out and the thread-local pack scratch.  Under it run the
// leaf kernels — panel packing, the register-tiled microkernel with its
// tile writeback, and the row-streaming loop — written once, in
// gemm_leaf.inc, and compiled once per variant, each inside its own
// namespace:
//
//   base     gemm.cc, at the library's own flags; every build has it.
//   avx2     gemm_avx2.cc, at -mavx2 -ffp-contract=off.
//   avx512   gemm_avx512.cc, at -mavx512f -ffp-contract=off.
//
// Only x86-64 builds whose baseline lacks AVX2 have the last two (see
// CMakeLists.txt).
//
// A process runs one of them: the widest this CPU supports, picked once
// from CPUID.  The variants compute the same bytes.  Every output element
// keeps its sum order (from +0.0f, p ascending, per kKC block) whatever
// the tile width, and no variant contracts a*b+c where the baseline does
// not: an IEEE multiply or add rounds the same in an xmm, ymm or zmm
// lane.  A baseline that has AVX2 already (-march=native, -mavx2) gets no
// variant and keeps its one, possibly FMA-contracted, kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/pack.h"

namespace tifl::tensor::detail {

struct GemmKernels {
  GemmIsa isa;  // the variant's name, kNR and kVecBytes (pack.h's table)

  // Packs the [mc, kc] block of `a` at (row0, col0) into kMR-row panels,
  // zero-padded to a multiple of kMR rows.
  void (*pack_a)(const ConstView& a, std::int64_t row0, std::int64_t col0,
                 std::int64_t mc, std::int64_t kc, float* apack);
  // Packs the [kc, nc] block of `b` at (row0, col0) into nr-column panels,
  // zero-padded to a multiple of nr columns.
  void (*pack_b)(const ConstView& b, std::int64_t row0, std::int64_t col0,
                 std::int64_t kc, std::int64_t nc, float* bpack);
  // Runs every microtile of an [mc x nc] block of C (leading dimension
  // ldc, at global coordinates (ic, jc)) from packed A and B panels:
  // merges C's prior value when `merge_c`, applies `ep` when `last_k`.
  void (*run_block)(const float* apack, const float* bpack, float* c,
                    std::int64_t ldc, std::int64_t ic, std::int64_t jc,
                    std::int64_t mc, std::int64_t nc, std::int64_t kc,
                    bool merge_c, bool last_k, const Epilogue& ep);
  // Computes rows [i0, i1) of C[m, n] = A * B for a row-major B,
  // accumulating in place when `accumulate`, then applies `ep`.
  void (*stream_rows)(ConstView a, ConstView b, float* c, std::int64_t i0,
                      std::int64_t i1, std::int64_t k, std::int64_t n,
                      bool accumulate, const Epilogue& ep);
};

// Test-only beyond gemm.cc: the variants this build carries and this CPU
// can run, narrowest first.  The last one is the one every GEMM runs.
const std::vector<const GemmKernels*>& gemm_variants();

// One GEMM through `kernels`: the path choice (degenerate, small, stream
// or blocked) and fan-out every entry point runs, with the selected
// variant.  Tests pass each variant in turn.
void gemm_with(const GemmKernels& kernels, const ConstView& a,
               const ConstView& b, float* c, std::int64_t m, std::int64_t k,
               std::int64_t n, bool accumulate, const Epilogue& ep);

}  // namespace tifl::tensor::detail

namespace tifl::tensor::base {
extern const detail::GemmKernels kKernels;
}  // namespace tifl::tensor::base

namespace tifl::tensor::avx2 {
extern const detail::GemmKernels kKernels;
}  // namespace tifl::tensor::avx2

namespace tifl::tensor::avx512 {
extern const detail::GemmKernels kKernels;
}  // namespace tifl::tensor::avx512
