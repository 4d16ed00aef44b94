// The GEMM leaf kernels built for AVX-512 (see gemm_kernels.h).
//
// CMakeLists.txt compiles this unit only on x86-64 builds whose baseline
// lacks AVX2, with -mavx512f -ffp-contract=off, and gemm.cc runs it only
// where CPUID reports AVX-512F.  Nothing else may live here: every
// function this unit emits holds AVX-512 instructions.
#include <cstddef>
#include <cstdint>

#include "tensor/gemm_kernels.h"

namespace tifl::tensor::avx512 {
namespace {

constexpr IsaTile kTile = kZmmTile;
#include "tensor/gemm_leaf.inc"

}  // namespace

const detail::GemmKernels kKernels{
    {"avx512", kNR, kVecBytes}, pack_a, pack_b, run_block, stream_rows};

}  // namespace tifl::tensor::avx512
