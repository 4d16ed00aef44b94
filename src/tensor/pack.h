// Blocking geometry and panel layout of the blocked GEMM core (the
// packing and the kernels themselves are in gemm_leaf.inc).
//
// The kernel follows the classic three-level blocking scheme (Goto/BLIS):
// C is computed in NC-wide column slabs; each slab accumulates KC-deep rank
// updates; inside a rank update, MC-row blocks of A stream through a
// register-tiled kMR x kNR microkernel.  Both operands are repacked into
// contiguous, zero-padded panels first:
//
//   A block [mc, kc] -> ceil(mc/kMR) panels, each kc x kMR column-major-ish:
//                       apack[panel][p*kMR + i] = A[panel*kMR + i, p]
//   B block [kc, nc] -> ceil(nc/kNR) panels, each kc x kNR:
//                       bpack[panel][p*kNR + j] = B[p, panel*kNR + j]
//
// so the microkernel's inner loop reads both operands with unit stride
// regardless of the caller's layout (normal or transposed views are handled
// by the generic row/column strides in ConstView).  Edge panels are padded
// with zeros: the microkernel always runs full tiles and the padded lanes
// contribute exact +0.0f terms, which keeps every output element's reduction
// order fixed — the determinism contract the FL engines rely on.
#pragma once

#include <cstdint>

namespace tifl::tensor {

// Register microtile: each microkernel call produces kMR x kNR elements of
// C (or kMR x 2*kNR from two adjacent panels, where that fits).  kMR is
// the same everywhere; kNR comes with the vector ISA a build of the leaf
// kernels targets (gemm_leaf.inc), one row of this table each.  The
// microkernel's vector type is one register, kVecBytes wide, and kNR is
// picked so that a tile's accumulators, one B vector per register of a
// tile row and the A broadcast fit the kVecRegs registers the ISA has
// (gemm_leaf.inc static_asserts this budget):
//
//   row       ISA         register  kNR  one-panel tile       two-panel tile
//   kXmmTile  SSE2        16 x xmm    8  2 xmm/row, 15 regs   no (29 > 16)
//   kYmmTile  AVX, AVX2   16 x ymm   16  2 ymm/row, 15 regs   no (29 > 16)
//   kZmmTile  AVX-512     32 x zmm   16  1 zmm/row,  8 regs   yes (15 regs)
//
// Nothing below this table depends on the row: a variant changes how
// wide a tile is, never which path a shape takes or how an element's sum
// is ordered.
inline constexpr std::int64_t kMR = 6;

struct IsaTile {
  std::int64_t nr;         // kNR: columns per packed B panel
  std::int64_t vec_bytes;  // kVecBytes: one vector register
  std::int64_t vec_regs;   // kVecRegs: vector registers the ISA has
};
inline constexpr IsaTile kXmmTile{8, 16, 16};
inline constexpr IsaTile kYmmTile{16, 32, 16};
inline constexpr IsaTile kZmmTile{16, 64, 32};

// Cache blocking: a kMC x kKC A block (~96 KiB) lives in L2 while its
// panels stream through L1; a kKC x kNC B slab (~2 MiB) is packed once per
// rank update and reused by every A block, i.e. across the whole M loop.
inline constexpr std::int64_t kMC = 96;    // multiple of kMR
inline constexpr std::int64_t kKC = 256;
inline constexpr std::int64_t kNC = 2048;  // multiple of every kNR

// Problems below this flop-count skip packing entirely (gemm_small): the
// panel setup would cost more than it saves on tiny layer shapes, which
// instead stream C rows serially through a vectorized loop that sums each
// element from +0.0f over p ascending, as a scalar dot product would.
// The small and stream paths round differently under `accumulate`, so
// moving this threshold changes the bytes of the shapes it moves.
inline constexpr std::int64_t kSmallGemmLimit = 32 * 32 * 32;

// Shapes where packing cannot amortize — shallow reductions (k at or below
// kStreamMaxK) or very short C (m at or below kStreamMaxM: B is only
// streamed a handful of times) — run the row-streaming kernel instead when
// B is row-major.  The k threshold sits at the measured crossover: by
// k ~ 24 the packed microkernel already beats row streaming ~1.3x and the
// gap widens with depth (~3x by k = 64), while below it the per-tile
// accumulator setup/writeback cannot amortize over so few rank-1 updates.
inline constexpr std::int64_t kStreamMaxK = 16;
inline constexpr std::int64_t kStreamMaxM = 2 * kMR;

// Streamed C rows at or below this width are computed four rows per B
// sweep (each B row load feeds four FMAs); wider rows go one at a time —
// with multi-kilobyte rows the extra write streams cost more than the
// B reuse saves.
inline constexpr std::int64_t kStreamRowBlockMaxN = 512;

// Strided read-only matrix view: element (i, j) is data[i*rs + j*cs].
// Normal row-major is {ptr, ld, 1}; a transposed operand is {ptr, 1, ld} —
// packing absorbs the transpose so the core never needs layout variants.
struct ConstView {
  const float* data;
  std::int64_t rs;
  std::int64_t cs;
};

}  // namespace tifl::tensor
