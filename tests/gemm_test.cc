// GEMM kernels checked against a naive triple-loop reference across a
// parameterized sweep of shapes, including the degenerate and prime-sized
// cases that trip blocking/parallel-split bugs.  The bit-pinning tests run
// once per leaf-kernel variant this CPU can run (detail::gemm_variants):
// on an AVX-512 machine, a default build checks its SSE2 and AVX2
// fallbacks too.
#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "tensor/pack.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tifl::tensor {
namespace {

Tensor random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn({r, c}, rng);
}

Tensor reference_nn(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

using detail::GemmKernels;
using detail::gemm_variants;

// The variant the public entry points run.
const GemmKernels& selected() { return *gemm_variants().back(); }

enum class GemmKind { kNN, kNT, kTN };

struct GemmCase {
  GemmKind kind;
  std::int64_t m, k, n;
};

// One GEMM through `kernels`, with operands as the public entry points
// take them: A is [m,k] for nn/nt and stored [k,m] for tn; B is [k,n] for
// nn/tn and stored [n,k] for nt.
void run_case(const GemmKernels& kernels, const GemmCase& gc, const float* a,
              const float* b, float* c, bool accumulate, const Epilogue& ep) {
  const std::int64_t m = gc.m, k = gc.k, n = gc.n;
  const ConstView av = gc.kind == GemmKind::kTN ? ConstView{a, 1, m}
                                                : ConstView{a, k, 1};
  const ConstView bv = gc.kind == GemmKind::kNT ? ConstView{b, 1, k}
                                                : ConstView{b, n, 1};
  detail::gemm_with(kernels, av, bv, c, m, k, n, accumulate, ep);
}

using GemmShape = std::tuple<int, int, int>;  // M, K, N

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = random_matrix(m, k, 1);
  const Tensor b = random_matrix(k, n, 2);
  Tensor c({m, n});
  gemm_nn(a, b, c);
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

TEST_P(GemmSweep, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = random_matrix(m, k, 3);
  const Tensor b_t = random_matrix(n, k, 4);  // stores B^T
  Tensor c({m, n});
  gemm_nt(a, b_t, c);
  // Reference: multiply by explicit transpose.
  Tensor b({k, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) b.at(j, i) = b_t.at(i, j);
  }
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

TEST_P(GemmSweep, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a_t = random_matrix(k, m, 5);  // stores A^T
  const Tensor b = random_matrix(k, n, 6);
  Tensor c({m, n});
  gemm_tn(a_t, b, c);
  Tensor a({m, k});
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < m; ++j) a.at(j, i) = a_t.at(i, j);
  }
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 7, 1},
                      GemmShape{2, 3, 4}, GemmShape{5, 5, 5},
                      GemmShape{13, 17, 11},  // primes
                      GemmShape{10, 64, 10},  // dense-layer shape
                      GemmShape{64, 1, 64},   // rank-1 outer product
                      GemmShape{1, 128, 32},  // single row
                      GemmShape{100, 30, 70}  // larger than a row chunk
                      ));

TEST(Gemm, AccumulateAddsOntoExisting) {
  const Tensor a = random_matrix(4, 5, 7);
  const Tensor b = random_matrix(5, 6, 8);
  Tensor c({4, 6}, 1.0f);
  gemm_nn(a, b, c, /*accumulate=*/true);
  Tensor expected = reference_nn(a, b);
  for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += 1.0f;
  EXPECT_LE(max_abs_diff(c, expected), 1e-4f);
}

TEST(Gemm, OverwriteClearsExisting) {
  const Tensor a = random_matrix(4, 5, 9);
  const Tensor b = random_matrix(5, 6, 10);
  Tensor c({4, 6}, 123.0f);
  gemm_nn(a, b, c, /*accumulate=*/false);
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
  Tensor b2({3, 5}), c2({3, 5});
  EXPECT_THROW(gemm_nn(a, b2, c2), std::invalid_argument);
}

TEST(Gemm, RankMismatchThrows) {
  Tensor a({2, 3, 1}), b({3, 4}), c({2, 4});
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
}

TEST(Gemm, ParallelResultIsDeterministic) {
  // Same inputs, two runs: results must be bitwise identical (each output
  // element is written by exactly one task).
  const Tensor a = random_matrix(200, 50, 11);
  const Tensor b = random_matrix(50, 80, 12);
  Tensor c1({200, 80}), c2({200, 80});
  gemm_nn(a, b, c1);
  gemm_nn(a, b, c2);
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0f);
}

// --- blocked-vs-naive equivalence over odd/edge shapes ----------------------
// M, K, N sweep {1, 3, 17, 64, 257} x accumulate on/off, through every
// variant: exercises the small, stream and packed dispatch paths, ragged
// microtiles (257 = 42*6+5 rows, 16*16+1 columns) and multi-KC reductions
// (257 > KC is false here, but 257 columns span multiple NR panels and
// the x2 tile pairing).
using EdgeCase = std::tuple<int, int, int, bool>;  // M, K, N, accumulate

class GemmEdgeSweep : public ::testing::TestWithParam<EdgeCase> {
 protected:
  static constexpr float kEdgeTol = 1e-3f;  // K=257 float reduction slack
};

TEST_P(GemmEdgeSweep, NnMatchesReference) {
  const auto [m, k, n, accumulate] = GetParam();
  const Tensor a = random_matrix(m, k, 21);
  const Tensor b = random_matrix(k, n, 22);
  const Tensor c0 = random_matrix(m, n, 23);
  Tensor expected = reference_nn(a, b);
  if (accumulate) {
    for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += c0[i];
  }
  for (const GemmKernels* kernels : gemm_variants()) {
    Tensor c = c0;
    run_case(*kernels, {GemmKind::kNN, m, k, n}, a.data(), b.data(), c.data(),
             accumulate, {});
    EXPECT_LE(max_abs_diff(c, expected), kEdgeTol) << kernels->isa.name;
  }
}

TEST_P(GemmEdgeSweep, NtMatchesReference) {
  const auto [m, k, n, accumulate] = GetParam();
  const Tensor a = random_matrix(m, k, 24);
  const Tensor b_t = random_matrix(n, k, 25);
  Tensor b({k, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) b.at(j, i) = b_t.at(i, j);
  }
  const Tensor c0 = random_matrix(m, n, 26);
  Tensor expected = reference_nn(a, b);
  if (accumulate) {
    for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += c0[i];
  }
  for (const GemmKernels* kernels : gemm_variants()) {
    Tensor c = c0;
    run_case(*kernels, {GemmKind::kNT, m, k, n}, a.data(), b_t.data(),
             c.data(), accumulate, {});
    EXPECT_LE(max_abs_diff(c, expected), kEdgeTol) << kernels->isa.name;
  }
}

TEST_P(GemmEdgeSweep, TnMatchesReference) {
  const auto [m, k, n, accumulate] = GetParam();
  const Tensor a_t = random_matrix(k, m, 27);
  const Tensor b = random_matrix(k, n, 28);
  Tensor a({m, k});
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < m; ++j) a.at(j, i) = a_t.at(i, j);
  }
  const Tensor c0 = random_matrix(m, n, 29);
  Tensor expected = reference_nn(a, b);
  if (accumulate) {
    for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += c0[i];
  }
  for (const GemmKernels* kernels : gemm_variants()) {
    Tensor c = c0;
    run_case(*kernels, {GemmKind::kTN, m, k, n}, a_t.data(), b.data(),
             c.data(), accumulate, {});
    EXPECT_LE(max_abs_diff(c, expected), kEdgeTol) << kernels->isa.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmEdgeSweep,
    ::testing::Combine(::testing::Values(1, 3, 17, 64, 257),
                       ::testing::Values(1, 3, 17, 64, 257),
                       ::testing::Values(1, 3, 17, 64, 257),
                       ::testing::Bool()));

// --- fused epilogue ---------------------------------------------------------

TEST(GemmEpilogue, BiasAndReluMatchSeparatePasses) {
  // 128^3 takes the packed path; the epilogue must equal gemm + explicit
  // bias-and-relu passes bit for bit (same adds in the same order).
  const std::int64_t m = 128, k = 128, n = 128;
  const Tensor a = random_matrix(m, k, 31);
  const Tensor b = random_matrix(k, n, 32);
  const Tensor bias_n = random_matrix(1, n, 33).reshaped({n});
  const Tensor bias_m = random_matrix(1, m, 34).reshaped({m});

  Tensor plain({m, n});
  gemm_nn(a, b, plain);
  Tensor expected = plain;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float v = expected.at(i, j) + bias_m[i] + bias_n[j];
      expected.at(i, j) = v > 0.0f ? v : 0.0f;
    }
  }

  Tensor fused({m, n});
  Epilogue ep;
  ep.bias_m = bias_m.data();
  ep.bias_n = bias_n.data();
  ep.relu = true;
  gemm_nn(a, b, fused, /*accumulate=*/false, ep);
  EXPECT_EQ(max_abs_diff(fused, expected), 0.0f);
}

TEST(GemmEpilogue, AppliesOnSmallAndStreamPaths) {
  // 8x8x8 (small path) and 4x200x300 (stream path: short C) against the
  // same manual epilogue.
  for (const auto& [m, k, n] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t>{8, 8, 8},
        std::tuple<std::int64_t, std::int64_t, std::int64_t>{4, 200, 300}}) {
    const Tensor a = random_matrix(m, k, 41);
    const Tensor b = random_matrix(k, n, 42);
    const Tensor bias = random_matrix(1, n, 43).reshaped({n});
    Tensor expected({m, n});
    gemm_nn(a, b, expected);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const float v = expected.at(i, j) + bias[j];
        expected.at(i, j) = v > 0.0f ? v : 0.0f;
      }
    }
    Tensor fused({m, n});
    Epilogue ep;
    ep.bias_n = bias.data();
    ep.relu = true;
    gemm_nn(a, b, fused, /*accumulate=*/false, ep);
    EXPECT_EQ(max_abs_diff(fused, expected), 0.0f) << m << "x" << k << "x" << n;
  }
}

// --- dispatch determinism ---------------------------------------------------

TEST(Gemm, NestedSerialMatchesTopLevelBitwise) {
  // From the top level the blocked kernel tiles across the pool; from a
  // worker thread it degrades to the serial blocked kernel.  Both must
  // produce bit-identical C — the pool-size determinism contract.
  const Tensor a = random_matrix(300, 200, 51);
  const Tensor b = random_matrix(200, 300, 52);
  Tensor top({300, 300}), nested({300, 300});
  gemm_nn(a, b, top);
  util::global_pool()
      .submit([&] { gemm_nn(a, b, nested); })
      .get();
  EXPECT_EQ(max_abs_diff(top, nested), 0.0f);
}

TEST(Gemm, NtNnConsistency) {
  // A*B via nn must equal A*(B^T)^T via nt.
  const Tensor a = random_matrix(6, 7, 13);
  const Tensor b = random_matrix(7, 8, 14);
  Tensor b_t({8, 7});
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) b_t.at(j, i) = b.at(i, j);
  }
  Tensor c_nn({6, 8}), c_nt({6, 8});
  gemm_nn(a, b, c_nn);
  gemm_nt(a, b_t, c_nt);
  EXPECT_LE(max_abs_diff(c_nn, c_nt), 1e-4f);
}

// --- small path: bit-pinned to the scalar dot product -------------------------
// Every call below kSmallGemmLimit must reproduce, bit for bit, the scalar
// loop the small path has always computed: per element, acc = +0.0f, then
// acc += a*b over p ascending, then c + acc when accumulating, then bias_m,
// bias_n and ReLU.  Training trajectories, goldens and final-weight hashes
// all rest on that sequence.

// The baseline kernels are compiled with -ffp-contract=fast, so whether
// each a*b+acc step rounds once (FMA) or twice depends on the target ISA
// and the optimizer.  This file does not contract; the reference learns
// the baseline's mode from a two-term sum whose fused and unfused results
// differ: -1 + (1 + 2^-12)^2 is 2^-11 + 2^-24 exactly, but 2^-11 once the
// square is rounded to float first.  Every other variant must match the
// same reference: the variants compute the same bytes.
bool probe_fused(float c) {
  const float fused = 0x1p-11f + 0x1p-24f;
  EXPECT_TRUE(c == fused || c == 0x1p-11f) << c;
  return c == fused;
}

bool small_kernel_fuses() {
  const float a[2] = {-1.0f, 1.0f + 0x1p-12f};
  const float b[2] = {1.0f, 1.0f + 0x1p-12f};
  float c = 0.0f;
  run_case(*gemm_variants().front(), {GemmKind::kNN, 1, 2, 1}, a, b, &c,
           /*accumulate=*/false, {});
  return probe_fused(c);
}

float madd(float acc, float a, float b, bool fused) {
  if (fused) return std::fma(a, b, acc);
  const float product = a * b;  // own statement: never contracted
  return acc + product;
}

// Operands as the kernels see them: A is [m,k] for nn/nt and stored
// [k,m] for tn; B is [k,n] for nn/tn and stored [n,k] for nt.
void reference_small(const GemmCase& sc, const float* a, const float* b,
                     float* c, bool accumulate, const Epilogue& ep,
                     bool fused) {
  const std::int64_t m = sc.m, k = sc.k, n = sc.n;
  const std::int64_t ars = sc.kind == GemmKind::kTN ? 1 : k;
  const std::int64_t acs = sc.kind == GemmKind::kTN ? m : 1;
  const std::int64_t brs = sc.kind == GemmKind::kNT ? 1 : n;
  const std::int64_t bcs = sc.kind == GemmKind::kNT ? k : 1;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc = madd(acc, a[i * ars + p * acs], b[p * brs + j * bcs], fused);
      }
      float v = accumulate ? c[i * n + j] + acc : acc;
      if (ep.bias_m != nullptr) v += ep.bias_m[i];
      if (ep.bias_n != nullptr) v += ep.bias_n[j];
      if (ep.relu && v < 0.0f) v = 0.0f;
      c[i * n + j] = v;
    }
  }
}

// Normal draws; with `special_every` > 0, every special_every-th entry
// (offset by `seed`) becomes one of -0, +inf, -inf, NaN.  Every 5th is -0
// either way, so signed-zero sums are exercised on finite inputs too.
std::vector<float> test_operand(std::int64_t count, std::uint64_t seed,
                                std::uint64_t special_every) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(count));
  const float kSpecials[4] = {-0.0f, std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(rng.normal());
    if (i % 5 == 3) v[i] = -0.0f;
    if (special_every > 0 && (i + seed) % special_every == 0) {
      v[i] = kSpecials[(i / special_every) % 4];
    }
  }
  return v;
}

// Bitwise equality, except that any NaN matches any NaN (which operand's
// payload propagates may depend on instruction operand order).
::testing::AssertionResult same_bits(const std::vector<float>& got,
                                     const std::vector<float>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr GemmKind kAllKinds[] = {GemmKind::kNN, GemmKind::kNT,
                                   GemmKind::kTN};

std::vector<GemmCase> small_cases() {
  std::vector<GemmCase> cases;
  for (const GemmKind kind : kAllKinds) {
    // m not always a multiple of the kernel's 4-row blocks; one row wider
    // than the stream kernel's 4-row limit.
    for (const std::int64_t m : {1, 3, 4, 5, 10}) {
      cases.push_back({kind, m, 7, 9});
      cases.push_back({kind, m, 1, 13});
      cases.push_back({kind, m, 2, 600});
    }
    // The per-client MLP shapes of the benchmark workloads (batch 10):
    // 6x6 inputs / 16 hidden / 4 classes, and 8x8 inputs / 48 hidden.
    const std::int64_t kWorkloadShapes[][3] = {
        {10, 36, 16}, {10, 16, 4},  {36, 10, 16}, {10, 16, 36},
        {10, 64, 48}, {64, 10, 48}, {10, 48, 64}};
    for (const auto& s : kWorkloadShapes) {
      cases.push_back({kind, s[0], s[1], s[2]});
    }
  }
  return cases;
}

// Runs every case x accumulate x epilogue x input variant through each of
// `kernels` and the reference; returns the number of calls made.
std::uint64_t check_small_cases(const std::vector<const GemmKernels*>& kernels,
                                bool fused) {
  std::uint64_t calls = 0;
  for (const GemmCase& sc : small_cases()) {
    EXPECT_LT(sc.m * sc.k * sc.n, kSmallGemmLimit);
    for (const std::uint64_t every : {0, 7}) {
      const std::vector<float> a = test_operand(sc.m * sc.k, 61, every);
      const std::vector<float> b = test_operand(sc.k * sc.n, 62, every);
      const std::vector<float> c0 = test_operand(sc.m * sc.n, 63, every);
      const std::vector<float> bias_m = test_operand(sc.m, 64, 0);
      const std::vector<float> bias_n = test_operand(sc.n, 65, 0);
      Epilogue eps[4];
      eps[1].bias_n = bias_n.data();
      eps[2].bias_m = bias_m.data();
      eps[3].relu = true;
      for (const bool accumulate : {false, true}) {
        for (int e = 0; e < 4; ++e) {
          std::vector<float> want = c0;
          reference_small(sc, a.data(), b.data(), want.data(), accumulate,
                          eps[e], fused);
          for (const GemmKernels* kernel : kernels) {
            std::vector<float> got = c0;
            run_case(*kernel, sc, a.data(), b.data(), got.data(), accumulate,
                     eps[e]);
            ++calls;
            EXPECT_TRUE(same_bits(got, want))
                << kernel->isa.name << " kind " << static_cast<int>(sc.kind)
                << " " << sc.m << "x" << sc.k << "x" << sc.n << " accumulate "
                << accumulate << " epilogue " << e << " special_every "
                << every;
          }
        }
      }
    }
  }
  return calls;
}

TEST(GemmSmall, BitIdenticalToScalarDotProduct) {
  const bool fused = small_kernel_fuses();
  obs::Counter& small = obs::Registry::global().counter("gemm.small");
  const std::uint64_t before = small.value();
  const std::uint64_t calls = check_small_cases(gemm_variants(), fused);
  // Every call above took the small path.
  EXPECT_EQ(small.value() - before, calls);
}

TEST(GemmSmall, PoolWorkerAlongsideTopLevelCall) {
  // Scratch is per thread: a worker and the top level running small GEMMs
  // at the same time must each still match the reference.
  const bool fused = small_kernel_fuses();
  std::future<void> worker = util::global_pool().submit(
      [fused] { check_small_cases({&selected()}, fused); });
  check_small_cases({&selected()}, fused);
  worker.get();
}

// --- blocked path: bit-pinned to per-K-block scalar sums ----------------------
// Every call on the packed path must reproduce, bit for bit, this scalar
// loop: per element and per kKC-deep block of the reduction, acc = +0.0f,
// then acc += a*b over p ascending; the first block's sum is the value
// (acc + c when accumulating), each later block's sum merges as
// acc + value; after the last block come bias_m, bias_n and ReLU.  Tile
// shape, panel pairing, M/N partitioning and the pool size must not enter
// it.

bool blocked_kernel_fuses() {
  // 32^3 is on the blocked path: not below kSmallGemmLimit, and k and m
  // above the stream thresholds.  C[0,0] is the probe's two-term sum.
  constexpr std::int64_t n = 32;
  static_assert(n * n * n >= kSmallGemmLimit && n > kStreamMaxK &&
                n > kStreamMaxM);
  std::vector<float> a(n * n, 0.0f), b(n * n, 0.0f), c(n * n);
  a[0] = -1.0f;
  a[1] = 1.0f + 0x1p-12f;
  b[0] = 1.0f;
  b[n] = 1.0f + 0x1p-12f;
  run_case(*gemm_variants().front(), {GemmKind::kNN, n, n, n}, a.data(),
           b.data(), c.data(), /*accumulate=*/false, {});
  return probe_fused(c[0]);
}

// partials[blk][i*n + j]: block blk's sum for element (i, j).
std::vector<std::vector<float>> blocked_partials(const GemmCase& gc,
                                                 const float* a,
                                                 const float* b, bool fused) {
  const std::int64_t m = gc.m, k = gc.k, n = gc.n;
  const std::int64_t ars = gc.kind == GemmKind::kTN ? 1 : k;
  const std::int64_t acs = gc.kind == GemmKind::kTN ? m : 1;
  const std::int64_t brs = gc.kind == GemmKind::kNT ? 1 : n;
  const std::int64_t bcs = gc.kind == GemmKind::kNT ? k : 1;
  std::vector<std::vector<float>> partials;
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t pend = std::min(k, pc + kKC);
    std::vector<float>& sums =
        partials.emplace_back(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::int64_t p = pc; p < pend; ++p) {
          acc = madd(acc, a[i * ars + p * acs], b[p * brs + j * bcs], fused);
        }
        sums[i * n + j] = acc;
      }
    }
  }
  return partials;
}

void reference_blocked(const std::vector<std::vector<float>>& partials,
                       std::int64_t n, float* c, bool accumulate,
                       const Epilogue& ep) {
  for (std::size_t e = 0; e < partials[0].size(); ++e) {
    float v = accumulate ? partials[0][e] + c[e] : partials[0][e];
    for (std::size_t blk = 1; blk < partials.size(); ++blk) {
      v = partials[blk][e] + v;
    }
    const std::int64_t i = static_cast<std::int64_t>(e) / n;
    const std::int64_t j = static_cast<std::int64_t>(e) % n;
    if (ep.bias_m != nullptr) v += ep.bias_m[i];
    if (ep.bias_n != nullptr) v += ep.bias_n[j];
    if (ep.relu && v < 0.0f) v = 0.0f;
    c[e] = v;
  }
}

std::vector<GemmCase> blocked_cases() {
  // n: ragged single and paired column panels of every tile width in
  // pack.h's table (kNR 8 and 16), each one column either side of one and
  // of two panels.
  std::vector<std::int64_t> widths;
  for (const IsaTile& tile : {kXmmTile, kYmmTile, kZmmTile}) {
    for (const std::int64_t n : {tile.nr - 1, tile.nr + 1, 2 * tile.nr - 1,
                                 2 * tile.nr + 1}) {
      if (std::find(widths.begin(), widths.end(), n) == widths.end()) {
        widths.push_back(n);
      }
    }
  }
  std::vector<GemmCase> cases;
  for (const GemmKind kind : kAllKinds) {
    // m: ragged row tiles on the column-panel path, and past 2*kMC rows
    // on the M-parallel one.  k: one kKC block plus a single-term block,
    // and three blocks.
    for (const std::int64_t m : {3 * kMR - 1, std::int64_t{64}, 2 * kMC + 5}) {
      for (const std::int64_t k : {kKC + 1, std::int64_t{600}}) {
        for (const std::int64_t n : widths) {
          // The narrowest shapes fall below kSmallGemmLimit, off this path.
          if (m * k * n >= kSmallGemmLimit) cases.push_back({kind, m, k, n});
        }
      }
    }
  }
  // The benchmark workloads' blocked shapes: the MNIST CNN's conv2
  // forward, weight and column gradients and conv1 weight gradient on
  // batch 10 of 8x8 images, and 512-row evaluation chunks of the MLP-48
  // and the CNN's dense layer.
  const GemmCase kWorkloadShapes[] = {
      {GemmKind::kNN, 64, 288, 160}, {GemmKind::kNT, 64, 160, 288},
      {GemmKind::kTN, 288, 64, 160}, {GemmKind::kNT, 32, 360, 9},
      {GemmKind::kNN, 512, 192, 48}, {GemmKind::kNN, 250, 192, 48},
      {GemmKind::kNN, 512, 48, 10},  {GemmKind::kNN, 512, 256, 128}};
  cases.insert(cases.end(), std::begin(kWorkloadShapes),
               std::end(kWorkloadShapes));
  return cases;
}

// Runs every case x accumulate x epilogue x input variant through each of
// `kernels` and the reference; returns the number of calls made.
std::uint64_t check_blocked_cases(
    const std::vector<const GemmKernels*>& kernels, bool fused) {
  std::uint64_t calls = 0;
  for (const GemmCase& gc : blocked_cases()) {
    EXPECT_GE(gc.m * gc.k * gc.n, kSmallGemmLimit);
    // Specials sparse enough that most rows of A and columns of B stay
    // finite, so most outputs are still exact finite sums.
    for (const std::uint64_t every : {0, 4099}) {
      const std::vector<float> a = test_operand(gc.m * gc.k, 71, every);
      const std::vector<float> b = test_operand(gc.k * gc.n, 72, every);
      const std::vector<float> c0 = test_operand(gc.m * gc.n, 73, every);
      const std::vector<float> bias_m = test_operand(gc.m, 74, 0);
      const std::vector<float> bias_n = test_operand(gc.n, 75, 0);
      const std::vector<std::vector<float>> partials =
          blocked_partials(gc, a.data(), b.data(), fused);
      // No epilogue, then the dense layers' bias_n + ReLU, the conv
      // layers' bias_m + ReLU, and all three in their fixed order.
      Epilogue eps[4];
      eps[1].bias_n = bias_n.data();
      eps[1].relu = true;
      eps[2].bias_m = bias_m.data();
      eps[2].relu = true;
      eps[3] = {bias_m.data(), bias_n.data(), true};
      for (const bool accumulate : {false, true}) {
        for (int e = 0; e < 4; ++e) {
          std::vector<float> want = c0;
          reference_blocked(partials, gc.n, want.data(), accumulate, eps[e]);
          for (const GemmKernels* kernel : kernels) {
            std::vector<float> got = c0;
            run_case(*kernel, gc, a.data(), b.data(), got.data(), accumulate,
                     eps[e]);
            ++calls;
            EXPECT_TRUE(same_bits(got, want))
                << kernel->isa.name << " kind " << static_cast<int>(gc.kind)
                << " " << gc.m << "x" << gc.k << "x" << gc.n << " accumulate "
                << accumulate << " epilogue " << e << " special_every "
                << every;
          }
        }
      }
    }
  }
  return calls;
}

TEST(GemmBlocked, BitIdenticalToBlockedScalarSums) {
  const bool fused = blocked_kernel_fuses();
  obs::Counter& blocked = obs::Registry::global().counter("gemm.blocked");
  const std::uint64_t before = blocked.value();
  const std::uint64_t calls = check_blocked_cases(gemm_variants(), fused);
  EXPECT_EQ(blocked.value() - before, calls);
}

TEST(GemmBlocked, PoolWorkerAlongsideTopLevelCall) {
  // From a pool worker every path runs serially; from the top level the
  // same calls fan out over the pool's other workers.  Both must match.
  const bool fused = blocked_kernel_fuses();
  obs::Counter& blocked = obs::Registry::global().counter("gemm.blocked");
  const std::uint64_t before = blocked.value();
  std::uint64_t worker_calls = 0;
  std::future<void> worker =
      util::global_pool().submit([fused, &worker_calls] {
        worker_calls = check_blocked_cases({&selected()}, fused);
      });
  const std::uint64_t calls = check_blocked_cases({&selected()}, fused);
  worker.get();
  EXPECT_EQ(blocked.value() - before, calls + worker_calls);
}

// --- row independence: what block-parallel evaluation rests on --------------
// fl::evaluate_weights runs the test set in 16-row blocks and scores
// per-tier subsets from the hit flags of that one pass, in place of one
// serial pass over larger chunks plus a pass per subset.  That is exact
// only while a row's output does not depend on how many rows share its
// call.  For K <= kKC the small, stream and blocked paths all sum each
// element from +0.0f over p ascending, so row i of C must be the same bits
// at every row count.  The counts below cross small -> stream -> blocked
// and the M-parallel threshold (2 * kMC rows); the shapes are the dense
// layers' eval shapes (K x N) in the benchmark workloads' models.
TEST(GemmRowIndependence, RowOfCIsTheSameAtAnyRowCount) {
  constexpr std::int64_t kMaxRows = 512;
  const std::int64_t kRowCounts[] = {1, 3, 12, 13, 69, 191, 192, kMaxRows};
  const std::int64_t kShapes[][2] = {{192, 48}, {64, 48},   {36, 16},
                                     {48, 10},  {16, 4},    {256, 128},
                                     {128, 10}};
  static_assert(2 * kMC == 192);
  for (const auto& shape : kShapes) {
    const std::int64_t k = shape[0], n = shape[1];
    ASSERT_LE(k, kKC);
    const std::vector<float> a = test_operand(kMaxRows * k, 81, 0);
    const std::vector<float> b = test_operand(k * n, 82, 0);
    const std::vector<float> bias = test_operand(n, 83, 0);
    Epilogue dense;  // the dense layers' fused bias + ReLU
    dense.bias_n = bias.data();
    dense.relu = true;
    for (const Epilogue& ep : {Epilogue{}, dense}) {
      // The baseline's full call is the want of every variant's rows.
      std::vector<float> full(static_cast<std::size_t>(kMaxRows * n));
      run_case(*gemm_variants().front(), {GemmKind::kNN, kMaxRows, k, n},
               a.data(), b.data(), full.data(), /*accumulate=*/false, ep);
      for (const GemmKernels* kernels : gemm_variants()) {
        for (const std::int64_t m : kRowCounts) {
          // A's first and last m rows: each row sits at another offset of
          // its 4-row group, register tile and parallel chunk than it does
          // in the full call.
          for (const std::int64_t m0 : {std::int64_t{0}, kMaxRows - m}) {
            std::vector<float> part(static_cast<std::size_t>(m * n));
            run_case(*kernels, {GemmKind::kNN, m, k, n}, a.data() + m0 * k,
                     b.data(), part.data(), /*accumulate=*/false, ep);
            const std::vector<float> want(full.begin() + m0 * n,
                                          full.begin() + (m0 + m) * n);
            EXPECT_TRUE(same_bits(part, want))
                << kernels->isa.name << " " << k << "x" << n << " rows [" << m0
                << ", " << m0 + m << ") epilogue " << ep.active();
          }
        }
      }
    }
  }
}

// --- variant selection -------------------------------------------------------
// The build carries AVX2 and AVX-512 builds of the leaf kernels exactly
// when it targets x86-64 without AVX2, and a process runs the widest
// variant its CPU supports.
TEST(GemmVariants, SelectedIsTheWidestTheCpuSupports) {
  const GemmIsa isa = gemm_kernel_isa();
  EXPECT_STREQ(isa.name, selected().isa.name);
  EXPECT_EQ(isa.nr, selected().isa.nr);
  EXPECT_EQ(isa.vec_bytes, selected().isa.vec_bytes);
  for (const GemmKernels* kernels : gemm_variants()) {
    EXPECT_LE(kernels->isa.vec_bytes, isa.vec_bytes) << kernels->isa.name;
  }
#if defined(__x86_64__) && !defined(__AVX2__)
  __builtin_cpu_init();
  std::vector<std::string> want{gemm_variants().front()->isa.name};
  if (__builtin_cpu_supports("avx2")) want.push_back("avx2");
  if (__builtin_cpu_supports("avx512f")) want.push_back("avx512");
  std::vector<std::string> got;
  for (const GemmKernels* kernels : gemm_variants()) {
    got.push_back(kernels->isa.name);
    const std::string name = kernels->isa.name;
    if (name == "avx2" || name == "avx512") {
      const IsaTile tile = name == "avx2" ? kYmmTile : kZmmTile;
      EXPECT_EQ(kernels->isa.nr, tile.nr) << name;
      EXPECT_EQ(kernels->isa.vec_bytes, tile.vec_bytes) << name;
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(isa.name, want.back());
#else
  EXPECT_EQ(gemm_variants().size(), 1u);
#endif
}

}  // namespace
}  // namespace tifl::tensor
