#include "tensor/gemm.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "tensor/gemm_kernels.h"
#include "tensor/pack.h"
#include "util/thread_pool.h"

#if defined(TIFL_GEMM_VARIANTS) && defined(__AVX2__)
#error "a baseline with AVX2 keeps its one kernel: build no variants"
#endif

namespace tifl::tensor {

// The baseline build of the leaf kernels, at this unit's flags: the ISA
// the whole library targets, contracted to FMA where that ISA has it.
namespace base {
namespace {

#if defined(__AVX512F__)
constexpr IsaTile kTile = kZmmTile;
constexpr char kName[] = "avx512";
#elif defined(__AVX2__)
constexpr IsaTile kTile = kYmmTile;
constexpr char kName[] = "avx2";
#elif defined(__AVX__)
constexpr IsaTile kTile = kYmmTile;
constexpr char kName[] = "avx";
#elif defined(__SSE2__)
constexpr IsaTile kTile = kXmmTile;
constexpr char kName[] = "sse2";
#else
constexpr IsaTile kTile = kXmmTile;
constexpr char kName[] = "generic";
#endif
#include "tensor/gemm_leaf.inc"

}  // namespace

const detail::GemmKernels kKernels{
    {kName, kNR, kVecBytes}, pack_a, pack_b, run_block, stream_rows};

}  // namespace base

namespace {

using detail::GemmKernels;
using base::apply_epilogue;

void check_matrix(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string("gemm: ") + name +
                                " must be rank-2, got " +
                                shape_to_string(t.shape()));
  }
}

std::int64_t ceil_to(std::int64_t v, std::int64_t unit) {
  return (v + unit - 1) / unit * unit;
}

// Row-streaming kernel for shapes packing cannot amortize (see
// kStreamMaxK/kStreamMaxM): the seed's i-k-j loop order minus its
// SIMD-defeating zero-skip branch, parallel over C rows, epilogue fused
// into a final sweep of each row.  Requires row-major B.
void gemm_stream(const GemmKernels& kernels, const ConstView& a,
                 const ConstView& b, float* c, std::int64_t m, std::int64_t k,
                 std::int64_t n, bool accumulate, const Epilogue& ep) {
  util::global_pool().parallel_for_chunked(
      0, static_cast<std::size_t>(m),
      [&](std::size_t lo, std::size_t hi) {
        kernels.stream_rows(a, b, c, static_cast<std::int64_t>(lo),
                            static_cast<std::int64_t>(hi), k, n, accumulate,
                            ep);
      },
      /*grain=*/16, /*align=*/4);
}

// Tiny problems (below kSmallGemmLimit): packing cannot pay off, so the
// rows stream serially through stream_rows.  Per element that is a sum
// from +0.0f over p ascending — the same adds in the same order as a
// scalar dot product, each step one FMA wherever the kernels contract — but
// with j innermost it vectorizes and reads B rows with unit stride.  A
// transposed B (gemm_nt) is first copied row-major into scratch: a copy,
// no arithmetic.  When accumulating, the sum lands in scratch and merges
// as c + sum; stream_rows' in-place c += a*b rounds differently, which is
// why the dispatch thresholds must not move a shape between the two.
void gemm_small(const GemmKernels& kernels, const ConstView& a,
                const ConstView& b, float* c, std::int64_t m, std::int64_t k,
                std::int64_t n, bool accumulate, const Epilogue& ep) {
  // Grow-only, per calling thread (a pool worker and the top level may
  // run small GEMMs at the same time).
  thread_local std::vector<float> b_rows;
  thread_local std::vector<float> sums;

  ConstView brm = b;
  if (b.cs != 1) {
    if (b_rows.size() < static_cast<std::size_t>(k * n)) {
      b_rows.resize(static_cast<std::size_t>(k * n));
    }
    float* dst = b_rows.data();
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t p = 0; p < k; ++p) {
        dst[p * n + j] = b.data[p * b.rs + j * b.cs];
      }
    }
    brm = {dst, n, 1};
  }
  if (!accumulate) {
    kernels.stream_rows(a, brm, c, 0, m, k, n, /*accumulate=*/false, ep);
    return;
  }
  if (sums.size() < static_cast<std::size_t>(m * n)) {
    sums.resize(static_cast<std::size_t>(m * n));
  }
  kernels.stream_rows(a, brm, sums.data(), 0, m, k, n,
                      /*accumulate=*/false, {});
  for (std::int64_t i = 0; i < m; ++i) {
    float* __restrict crow = c + i * n;
    const float* __restrict srow = sums.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      crow[j] = apply_epilogue(crow[j] + srow[j], i, j, ep);
    }
  }
}

// M blocks shorter than this use the column-panel parallel path (packing A
// once, fanning tasks out over N), which keeps wide-but-short conv GEMMs
// parallel at the top level.
constexpr std::int64_t kMinRowsForMParallel = 2 * kMC;

// The blocked, packed core.  jc -> pc -> (parallel ic | parallel jr):
// B is packed once per (jc, pc) slab and reused by every A block.
void gemm_blocked(const GemmKernels& kernels, const ConstView& a,
                  const ConstView& b, float* c, std::int64_t m, std::int64_t k,
                  std::int64_t n, bool accumulate, const Epilogue& ep) {
  // Grow-only pack scratch.  bpack/apack_shared belong to the dispatching
  // thread; apack_local is per participating thread (workers and the
  // caller) inside the M-parallel region.
  thread_local std::vector<float> bpack_buf;
  thread_local std::vector<float> apack_shared;

  util::ThreadPool& pool = util::global_pool();
  const std::int64_t ldc = n;
  const std::int64_t nr = kernels.isa.nr;

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t nc_pad = ceil_to(nc, nr);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const bool merge_c = pc > 0 || accumulate;
      const bool last_k = pc + kc == k;

      if (bpack_buf.size() < static_cast<std::size_t>(nc_pad * kc)) {
        bpack_buf.resize(static_cast<std::size_t>(nc_pad * kc));
      }
      kernels.pack_b(b, pc, jc, kc, nc, bpack_buf.data());
      const float* bpack = bpack_buf.data();

      if (m >= kMinRowsForMParallel) {
        // Tall problems: tasks own contiguous row blocks and pack their
        // own A panels.
        pool.parallel_for_chunked(
            0, static_cast<std::size_t>(m),
            [&](std::size_t lo, std::size_t hi) {
              thread_local std::vector<float> apack_local;
              const std::size_t need =
                  static_cast<std::size_t>(ceil_to(kMC, kMR) * kKC);
              if (apack_local.size() < need) apack_local.resize(need);
              for (std::int64_t ic = static_cast<std::int64_t>(lo);
                   ic < static_cast<std::int64_t>(hi); ic += kMC) {
                const std::int64_t mc =
                    std::min(kMC, static_cast<std::int64_t>(hi) - ic);
                kernels.pack_a(a, ic, pc, mc, kc, apack_local.data());
                kernels.run_block(apack_local.data(), bpack, c, ldc, ic, jc,
                                  mc, nc, kc, merge_c, last_k, ep);
              }
            },
            static_cast<std::size_t>(kMC), static_cast<std::size_t>(kMR));
      } else {
        // Short-wide problems (conv layers): pack A once, parallelize over
        // nr-wide column panels.  Tasks write disjoint C columns.
        const std::int64_t m_pad = ceil_to(m, kMR);
        if (apack_shared.size() < static_cast<std::size_t>(m_pad * kc)) {
          apack_shared.resize(static_cast<std::size_t>(m_pad * kc));
        }
        kernels.pack_a(a, 0, pc, m, kc, apack_shared.data());
        const float* apack = apack_shared.data();
        const std::size_t panels =
            static_cast<std::size_t>((nc + nr - 1) / nr);
        pool.parallel_for_chunked(
            0, panels,
            [&](std::size_t plo, std::size_t phi) {
              const std::int64_t j0 = static_cast<std::int64_t>(plo) * nr;
              const std::int64_t j1 =
                  std::min(nc, static_cast<std::int64_t>(phi) * nr);
              kernels.run_block(apack, bpack + j0 * kc, c, ldc, 0, jc + j0, m,
                                j1 - j0, kc, merge_c, last_k, ep);
            },
            /*grain=*/1);
      }
    }
  }
}

// Dispatch-path counters: which kernel served how many calls.  One
// relaxed add per GEMM — noise next to even the smallest kernel.
struct GemmMetrics {
  obs::Counter& small;
  obs::Counter& stream;
  obs::Counter& blocked;
  obs::Counter& degenerate;
};

GemmMetrics& gemm_metrics() {
  static GemmMetrics m{
      obs::Registry::global().counter("gemm.small"),
      obs::Registry::global().counter("gemm.stream"),
      obs::Registry::global().counter("gemm.blocked"),
      obs::Registry::global().counter("gemm.degenerate"),
  };
  return m;
}

// The variant every GEMM runs: the widest one this CPU supports.
const GemmKernels& selected_kernels() {
  static const GemmKernels& kernels = *detail::gemm_variants().back();
  return kernels;
}

}  // namespace

namespace detail {

const std::vector<const GemmKernels*>& gemm_variants() {
  static const std::vector<const GemmKernels*> variants = [] {
    std::vector<const GemmKernels*> runnable{&base::kKernels};
#if defined(TIFL_GEMM_VARIANTS)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) runnable.push_back(&avx2::kKernels);
    if (__builtin_cpu_supports("avx512f")) {
      runnable.push_back(&avx512::kKernels);
    }
#endif
    return runnable;
  }();
  return variants;
}

void gemm_with(const GemmKernels& kernels, const ConstView& a,
               const ConstView& b, float* c, std::int64_t m, std::int64_t k,
               std::int64_t n, bool accumulate, const Epilogue& ep) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    gemm_metrics().degenerate.add();
    // Degenerate reduction: C's addend is zero; epilogue still applies.
    if (!accumulate) {
      std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
    }
    if (ep.active()) {
      for (std::int64_t i = 0; i < m; ++i) {
        float* crow = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] = apply_epilogue(crow[j], i, j, ep);
        }
      }
    }
    return;
  }
  if (m * k * n < kSmallGemmLimit) {
    gemm_metrics().small.add();
    gemm_small(kernels, a, b, c, m, k, n, accumulate, ep);
  } else if (b.cs == 1 && (k <= kStreamMaxK || m <= kStreamMaxM)) {
    gemm_metrics().stream.add();
    gemm_stream(kernels, a, b, c, m, k, n, accumulate, ep);
  } else {
    gemm_metrics().blocked.add();
    gemm_blocked(kernels, a, b, c, m, k, n, accumulate, ep);
  }
}

}  // namespace detail

GemmIsa gemm_kernel_isa() { return selected_kernels().isa; }

// --- raw-pointer entry points ----------------------------------------------

void gemm_nn_raw(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue) {
  detail::gemm_with(selected_kernels(), {a, k, 1}, {b, n, 1}, c, m, k, n,
                    accumulate, epilogue);
}

void gemm_nt_raw(const float* a, const float* b_t, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue) {
  // Logical B[p, j] = B_t[j, p]: a transposed view, absorbed by packing.
  detail::gemm_with(selected_kernels(), {a, k, 1}, {b_t, 1, k}, c, m, k, n,
                    accumulate, epilogue);
}

void gemm_tn_raw(const float* a_t, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue) {
  // Logical A[i, p] = A_t[p, i].
  detail::gemm_with(selected_kernels(), {a_t, 1, m}, {b, n, 1}, c, m, k, n,
                    accumulate, epilogue);
}

// --- reference kernels (the seed's scalar loops) ----------------------------

void gemm_nn_ref(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    }
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;  // the seed's zero-skip branch
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_ref(const float* a, const float* b_t, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b_t + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

void gemm_tn_ref(const float* a_t, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a_t[p * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// --- Tensor entry points ----------------------------------------------------

void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             const Epilogue& epilogue) {
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_nn: shape mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()) + " -> " +
                                shape_to_string(c.shape()));
  }
  gemm_nn_raw(a.data(), b.data(), c.data(), m, k, n, accumulate, epilogue);
}

void gemm_nt(const Tensor& a, const Tensor& b_t, Tensor& c, bool accumulate,
             const Epilogue& epilogue) {
  check_matrix(a, "A");
  check_matrix(b_t, "B^T");
  check_matrix(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b_t.dim(0);
  if (b_t.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_nt: shape mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b_t.shape()) + "^T -> " +
                                shape_to_string(c.shape()));
  }
  gemm_nt_raw(a.data(), b_t.data(), c.data(), m, k, n, accumulate, epilogue);
}

void gemm_tn(const Tensor& a_t, const Tensor& b, Tensor& c, bool accumulate,
             const Epilogue& epilogue) {
  check_matrix(a_t, "A^T");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::int64_t k = a_t.dim(0), m = a_t.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_tn: shape mismatch " +
                                shape_to_string(a_t.shape()) + "^T x " +
                                shape_to_string(b.shape()) + " -> " +
                                shape_to_string(c.shape()));
  }
  gemm_tn_raw(a_t.data(), b.data(), c.data(), m, k, n, accumulate, epilogue);
}

}  // namespace tifl::tensor
