#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "tensor/pack.h"
#include "util/thread_pool.h"

namespace tifl::tensor {

namespace {

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

// The one definition of the fused writeback, shared by every dispatch path
// so they stay bitwise interchangeable: bias_m, then bias_n, then ReLU.
inline float apply_epilogue(float v, std::int64_t gi, std::int64_t gj,
                            const Epilogue& ep) {
  if (ep.bias_m != nullptr) v += ep.bias_m[gi];
  if (ep.bias_n != nullptr) v += ep.bias_n[gj];
  if (ep.relu && v < 0.0f) v = 0.0f;
  return v;
}

// ---------------------------------------------------------------------------
// Microkernel: one kMR x (kPanels * kNR) tile of C from kPanels adjacent
// packed B panels.
//
// Accumulators live in registers for the whole K sweep; the packed operands
// are read with unit stride.  The K loop is a single sequential reduction
// per output element, so the tile's values do not depend on how M/N were
// partitioned or how many panels a tile spans — the property the pool-size
// determinism contract rests on.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)

// The vector type is exactly one register of the target (kVecBytes, set
// beside kNR in pack.h), and a kNR-wide tile row is kRowRegs of them.  GCC
// does not split a generic vector wider than the target's registers into
// several: it keeps it on the stack, and every accumulator update turns
// into loads and stores (CMakeLists.txt compiles this file with
// -Werror=psabi, which rejects such a type at every ISA).
constexpr std::int64_t kLanes = kVecBytes / 4;  // floats per register
constexpr std::int64_t kRowRegs = kNR / kLanes;
static_assert(kNR % kLanes == 0, "a tile row is whole registers");

// Registers a kMR-row tile `row_regs` registers wide needs: its
// accumulators, one B vector per row register and the a[i] broadcast.
constexpr bool tile_fits(std::int64_t row_regs) {
  return kMR * row_regs + row_regs + 1 <= kVecRegs;
}
static_assert(tile_fits(kRowRegs),
              "the kMR x kNR tile must fit the vector register file");

// Panels in the widest tile: two where the register file holds them
// (AVX-512: one zmm per panel row), so each A broadcast feeds two FMAs.
constexpr int kMaxTilePanels = tile_fits(2 * kRowRegs) ? 2 : 1;
static_assert(kMaxTilePanels * kRowRegs <= 2,
              "the tile kernels below are one or two registers per row");

// The type keeps its natural alignment so the accumulators live in
// registers; unaligned pack-buffer traffic goes through memcpy
// loads/stores (compiled to unaligned vector moves).
using vreg = float __attribute__((vector_size(kVecBytes), may_alias));

inline vreg load_vreg(const float* p) {
  vreg v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_vreg(float* p, vreg v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

// The two tile shapes, one and two registers per row, written out so every
// accumulator is a named register variable.  Register r of row i sums
// a[i] * (the B vector at bp_r + p*kNR) over p ascending from zero; `acc`
// rows are row_regs * kLanes floats.
void tile_1reg(std::int64_t kc, const float* __restrict ap,
               const float* __restrict bp, float* __restrict acc) {
  static_assert(kMR == 6, "microkernel is unrolled for kMR == 6");
  vreg c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const vreg bv = load_vreg(bp + p * kNR);
    const float* a = ap + p * kMR;
    c0 += bv * a[0];
    c1 += bv * a[1];
    c2 += bv * a[2];
    c3 += bv * a[3];
    c4 += bv * a[4];
    c5 += bv * a[5];
  }
  store_vreg(acc + 0 * kLanes, c0);
  store_vreg(acc + 1 * kLanes, c1);
  store_vreg(acc + 2 * kLanes, c2);
  store_vreg(acc + 3 * kLanes, c3);
  store_vreg(acc + 4 * kLanes, c4);
  store_vreg(acc + 5 * kLanes, c5);
}

void tile_2reg(std::int64_t kc, const float* __restrict ap,
               const float* __restrict bp0, const float* __restrict bp1,
               float* __restrict acc) {
  static_assert(kMR == 6, "microkernel is unrolled for kMR == 6");
  vreg c00{}, c01{}, c10{}, c11{}, c20{}, c21{};
  vreg c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const vreg b0 = load_vreg(bp0 + p * kNR);
    const vreg b1 = load_vreg(bp1 + p * kNR);
    const float* a = ap + p * kMR;
    c00 += b0 * a[0];
    c01 += b1 * a[0];
    c10 += b0 * a[1];
    c11 += b1 * a[1];
    c20 += b0 * a[2];
    c21 += b1 * a[2];
    c30 += b0 * a[3];
    c31 += b1 * a[3];
    c40 += b0 * a[4];
    c41 += b1 * a[4];
    c50 += b0 * a[5];
    c51 += b1 * a[5];
  }
  constexpr std::int64_t ld = 2 * kLanes;
  store_vreg(acc + 0 * ld, c00);
  store_vreg(acc + 0 * ld + kLanes, c01);
  store_vreg(acc + 1 * ld, c10);
  store_vreg(acc + 1 * ld + kLanes, c11);
  store_vreg(acc + 2 * ld, c20);
  store_vreg(acc + 2 * ld + kLanes, c21);
  store_vreg(acc + 3 * ld, c30);
  store_vreg(acc + 3 * ld + kLanes, c31);
  store_vreg(acc + 4 * ld, c40);
  store_vreg(acc + 4 * ld + kLanes, c41);
  store_vreg(acc + 5 * ld, c50);
  store_vreg(acc + 5 * ld + kLanes, c51);
}

// `acc` rows are kPanels * kNR floats.  A tile row's registers come from
// one panel (kRowRegs == 2) or one from each of two (kRowRegs == 1).  A
// plain `if` keeps both tile kernels referenced on every ISA.
template <int kPanels>
void microkernel(std::int64_t kc, const float* ap, const float* bp,
                 float* acc) {
  if (kPanels * kRowRegs == 1) {
    tile_1reg(kc, ap, bp, acc);
  } else {
    tile_2reg(kc, ap, bp, kPanels == 1 ? bp + kLanes : bp + kc * kNR, acc);
  }
}

#else

constexpr int kMaxTilePanels = 1;

template <int kPanels>
void microkernel(std::int64_t kc, const float* __restrict ap,
                 const float* __restrict bp, float* __restrict acc) {
  static_assert(kPanels == 1, "the scalar fallback has one-panel tiles");
  for (std::int64_t i = 0; i < kMR * kNR; ++i) acc[i] = 0.0f;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict b = bp + p * kNR;
    const float* __restrict a = ap + p * kMR;
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float av = a[i];
      float* __restrict row = acc + i * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) row[j] += av * b[j];
    }
  }
}

#endif

// Writes one microtile's accumulators into C, merging prior K blocks (or
// the caller's C when accumulating) and applying the fused epilogue on the
// final K block.  Handles ragged edges by clipping to mr x nr.
void write_tile(const float* acc, std::int64_t acc_ld, float* c,
                std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                std::int64_t gi, std::int64_t gj, bool merge_c, bool last_k,
                const Epilogue& ep) {
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * acc_ld;
    for (std::int64_t j = 0; j < nr; ++j) {
      float v = arow[j];
      if (merge_c) v += crow[j];
      if (last_k) v = apply_epilogue(v, gi + i, gj + j, ep);
      crow[j] = v;
    }
  }
}

// Runs every microtile of an [mc x nc] block: A panels are in `apack`,
// B panels in `bpack`, C starts at global coordinates (ic, jc).
void run_block(const float* apack, const float* bpack, float* c,
               std::int64_t ldc, std::int64_t ic, std::int64_t jc,
               std::int64_t mc, std::int64_t nc, std::int64_t kc,
               bool merge_c, bool last_k, const Epilogue& ep) {
  alignas(64) float acc[kMR * 2 * kNR];
  std::int64_t jr = 0;
  while (jr < nc) {
    const float* bpanel = bpack + jr * kc;
    if constexpr (kMaxTilePanels == 2) {
      if (nc - jr >= 2 * kNR) {
        // Full double tile from two adjacent packed panels.  Spelled
        // kMaxTilePanels so that builds without it never instantiate it.
        for (std::int64_t ir = 0; ir < mc; ir += kMR) {
          const std::int64_t mr = std::min(kMR, mc - ir);
          microkernel<kMaxTilePanels>(kc, apack + ir * kc, bpanel, acc);
          write_tile(acc, 2 * kNR, c + (ic + ir) * ldc + jc + jr, ldc, mr,
                     2 * kNR, ic + ir, jc + jr, merge_c, last_k, ep);
        }
        jr += 2 * kNR;
        continue;
      }
    }
    const std::int64_t nr = std::min(kNR, nc - jr);
    for (std::int64_t ir = 0; ir < mc; ir += kMR) {
      const std::int64_t mr = std::min(kMR, mc - ir);
      microkernel<1>(kc, apack + ir * kc, bpanel, acc);
      write_tile(acc, kNR, c + (ic + ir) * ldc + jc + jr, ldc, mr, nr,
                 ic + ir, jc + jr, merge_c, last_k, ep);
    }
    jr += kNR;
  }
}

// Row-streaming compute for rows [i0, i1) of C.  A standalone function
// with by-value operands on purpose: routing these loops through the
// type-erased parallel_for closure (captured references, no
// respecialization across the std::function boundary) measured ~20%
// slower than the identical loops compiled as a plain function.
//
// Narrow C rows (n <= kStreamRowBlockMaxN) are computed four at a time so
// each B row load feeds four FMAs.  Per-row reduction order is untouched
// by the blocking — every row still accumulates over p ascending, j
// ascending — so chunk boundaries and the 4-row grouping cannot perturb
// results (the pool-size determinism contract).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))  // inlining into the closure re-pessimizes it
#endif
void stream_rows(const ConstView a, const ConstView b, float* const c,
                 const std::int64_t i0, const std::int64_t i1,
                 const std::int64_t k, const std::int64_t n,
                 const bool accumulate, const Epilogue& ep) {
  std::int64_t i = i0;
  if (n <= kStreamRowBlockMaxN) {
    for (; i + 4 <= i1; i += 4) {
      float* __restrict c0 = c + i * n;
      float* __restrict c1 = c0 + n;
      float* __restrict c2 = c1 + n;
      float* __restrict c3 = c2 + n;
      if (!accumulate) {
        std::memset(c0, 0, sizeof(float) * static_cast<std::size_t>(4 * n));
      }
      for (std::int64_t p = 0; p < k; ++p) {
        const float a0 = a.data[(i + 0) * a.rs + p * a.cs];
        const float a1 = a.data[(i + 1) * a.rs + p * a.cs];
        const float a2 = a.data[(i + 2) * a.rs + p * a.cs];
        const float a3 = a.data[(i + 3) * a.rs + p * a.cs];
        const float* __restrict brow = b.data + p * b.rs;
        for (std::int64_t j = 0; j < n; ++j) {
          c0[j] += a0 * brow[j];
          c1[j] += a1 * brow[j];
          c2[j] += a2 * brow[j];
          c3[j] += a3 * brow[j];
        }
      }
      if (ep.active()) {
        for (std::int64_t r = 0; r < 4; ++r) {
          float* crow = c + (i + r) * n;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] = apply_epilogue(crow[j], i + r, j, ep);
          }
        }
      }
    }
  }
  for (; i < i1; ++i) {
    float* __restrict crow = c + i * n;
    if (!accumulate) {
      std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a.data[i * a.rs + p * a.cs];
      const float* __restrict brow = b.data + p * b.rs;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
    if (ep.active()) {
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = apply_epilogue(crow[j], i, j, ep);
      }
    }
  }
}

// Row-streaming kernel for shapes packing cannot amortize (see
// kStreamMaxK/kStreamMaxM): the seed's i-k-j loop order minus its
// SIMD-defeating zero-skip branch, parallel over C rows, epilogue fused
// into a final sweep of each row.  Requires row-major B.
void gemm_stream(const ConstView& a, const ConstView& b, float* c,
                 std::int64_t m, std::int64_t k, std::int64_t n,
                 bool accumulate, const Epilogue& ep) {
  util::global_pool().parallel_for_chunked(
      0, static_cast<std::size_t>(m),
      [&](std::size_t lo, std::size_t hi) {
        stream_rows(a, b, c, static_cast<std::int64_t>(lo),
                    static_cast<std::int64_t>(hi), k, n, accumulate, ep);
      },
      /*grain=*/16, /*align=*/4);
}

// Tiny problems (below kSmallGemmLimit): packing cannot pay off, so the
// rows stream serially through stream_rows.  Per element that is a sum
// from +0.0f over p ascending — the same adds in the same order as a
// scalar dot product, each step one FMA wherever this TU contracts — but
// with j innermost it vectorizes and reads B rows with unit stride.  A
// transposed B (gemm_nt) is first copied row-major into scratch: a copy,
// no arithmetic.  When accumulating, the sum lands in scratch and merges
// as c + sum; stream_rows' in-place c += a*b rounds differently, which is
// why the dispatch thresholds must not move a shape between the two.
void gemm_small(const ConstView& a, const ConstView& b, float* c,
                std::int64_t m, std::int64_t k, std::int64_t n,
                bool accumulate, const Epilogue& ep) {
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
    stream_rows(a, brm, c, 0, m, k, n, /*accumulate=*/false, ep);
    return;
  }
  if (sums.size() < static_cast<std::size_t>(m * n)) {
    sums.resize(static_cast<std::size_t>(m * n));
  }
  stream_rows(a, brm, sums.data(), 0, m, k, n, /*accumulate=*/false, {});
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
void gemm_blocked(const ConstView& a, const ConstView& b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate, const Epilogue& ep) {
  // Grow-only pack scratch.  bpack/apack_shared belong to the dispatching
  // thread; apack_local is per participating thread (workers and the
  // caller) inside the M-parallel region.
  thread_local std::vector<float> bpack_buf;
  thread_local std::vector<float> apack_shared;

  util::ThreadPool& pool = util::global_pool();
  const std::int64_t ldc = n;

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t nc_pad = ceil_to(nc, kNR);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const bool merge_c = pc > 0 || accumulate;
      const bool last_k = pc + kc == k;

      if (bpack_buf.size() < static_cast<std::size_t>(nc_pad * kc)) {
        bpack_buf.resize(static_cast<std::size_t>(nc_pad * kc));
      }
      pack_b(b, pc, jc, kc, nc, bpack_buf.data());
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
                pack_a(a, ic, pc, mc, kc, apack_local.data());
                run_block(apack_local.data(), bpack, c, ldc, ic, jc, mc, nc,
                          kc, merge_c, last_k, ep);
              }
            },
            static_cast<std::size_t>(kMC), static_cast<std::size_t>(kMR));
      } else {
        // Short-wide problems (conv layers): pack A once, parallelize over
        // kNR-wide column panels.  Tasks write disjoint C columns.
        const std::int64_t m_pad = ceil_to(m, kMR);
        if (apack_shared.size() < static_cast<std::size_t>(m_pad * kc)) {
          apack_shared.resize(static_cast<std::size_t>(m_pad * kc));
        }
        pack_a(a, 0, pc, m, kc, apack_shared.data());
        const float* apack = apack_shared.data();
        const std::size_t panels =
            static_cast<std::size_t>((nc + kNR - 1) / kNR);
        pool.parallel_for_chunked(
            0, panels,
            [&](std::size_t plo, std::size_t phi) {
              const std::int64_t j0 = static_cast<std::int64_t>(plo) * kNR;
              const std::int64_t j1 =
                  std::min(nc, static_cast<std::int64_t>(phi) * kNR);
              run_block(apack, bpack + j0 * kc, c, ldc, 0, jc + j0, m,
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

void gemm_dispatch(const ConstView& a, const ConstView& b, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   bool accumulate, const Epilogue& ep) {
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
    gemm_small(a, b, c, m, k, n, accumulate, ep);
  } else if (b.cs == 1 && (k <= kStreamMaxK || m <= kStreamMaxM)) {
    gemm_metrics().stream.add();
    gemm_stream(a, b, c, m, k, n, accumulate, ep);
  } else {
    gemm_metrics().blocked.add();
    gemm_blocked(a, b, c, m, k, n, accumulate, ep);
  }
}

}  // namespace

// --- raw-pointer entry points ----------------------------------------------

void gemm_nn_raw(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue) {
  gemm_dispatch({a, k, 1}, {b, n, 1}, c, m, k, n, accumulate, epilogue);
}

void gemm_nt_raw(const float* a, const float* b_t, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue) {
  // Logical B[p, j] = B_t[j, p]: a transposed view, absorbed by packing.
  gemm_dispatch({a, k, 1}, {b_t, 1, k}, c, m, k, n, accumulate, epilogue);
}

void gemm_tn_raw(const float* a_t, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate,
                 const Epilogue& epilogue) {
  // Logical A[i, p] = A_t[p, i].
  gemm_dispatch({a_t, 1, m}, {b, n, 1}, c, m, k, n, accumulate, epilogue);
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
