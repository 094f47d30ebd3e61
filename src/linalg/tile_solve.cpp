#include "linalg/tile_solve.h"

#include <cstring>

#include "util/error.h"

namespace acsel::linalg {

namespace {

/// Two and four doubles as one vector register (GCC/Clang vector
/// extension). Arithmetic on them is lane-wise: each lane gets exactly
/// the scalar operation, so grouping columns changes no result bit. A
/// scalar operand is broadcast to every lane.
using Pair = double __attribute__((vector_size(16)));

/// Vectors per tile row: the tile is 4 × lanes columns wide, and the
/// two rows of a step keep 8 vectors in registers.
constexpr std::size_t kVectorsPerRow = 4;

/// The tile body both forms share. It is inlined into each form's own
/// function, so the 32-byte instantiation is compiled only inside the
/// AVX2 target region and no function outside it takes or returns that
/// type by value (loads and stores go through memcpy for that reason).
///
/// Rows i and i+1 step together: both take rows 0..i-1 in j order in
/// one loop, row i is divided, then row i+1 takes row i and is divided.
/// The squared norms add v_i² before v_{i+1}², so every column keeps the
/// operation order of a single-column solve. An odd last row steps alone.
template <typename Vec>
[[gnu::always_inline]] inline void solve_tiles(const Matrix& l,
                                               std::span<double> block,
                                               std::size_t stride,
                                               std::span<double> reduction) {
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);
  constexpr std::size_t kWidth = kVectorsPerRow * kLanes;
  const std::size_t n = l.rows();
  ACSEL_CHECK_MSG(l.cols() == n && stride % kWidth == 0 &&
                      block.size() == n * stride &&
                      reduction.size() == stride,
                  "tile solve: shape mismatch");
  const double* const factor = l.data().data();
  double* const b = block.data();
  for (std::size_t c0 = 0; c0 < stride; c0 += kWidth) {
    double* const red = reduction.data() + c0;
    for (std::size_t i = 0; i < n; i += 2) {
      const bool pair = i + 1 < n;
      const double* const la = factor + i * n;
      const double* const lb = pair ? la + n : la;
      double* const va = b + i * stride + c0;
      double* const vb = pair ? va + stride : va;
      Vec a0, a1, a2, a3, b0, b1, b2, b3;
      std::memcpy(&a0, va, sizeof a0);
      std::memcpy(&a1, va + kLanes, sizeof a1);
      std::memcpy(&a2, va + 2 * kLanes, sizeof a2);
      std::memcpy(&a3, va + 3 * kLanes, sizeof a3);
      std::memcpy(&b0, vb, sizeof b0);
      std::memcpy(&b1, vb + kLanes, sizeof b1);
      std::memcpy(&b2, vb + 2 * kLanes, sizeof b2);
      std::memcpy(&b3, vb + 3 * kLanes, sizeof b3);
      for (std::size_t j = 0; j < i; ++j) {
        const double* const vj = b + j * stride + c0;
        Vec x0, x1, x2, x3;
        std::memcpy(&x0, vj, sizeof x0);
        std::memcpy(&x1, vj + kLanes, sizeof x1);
        std::memcpy(&x2, vj + 2 * kLanes, sizeof x2);
        std::memcpy(&x3, vj + 3 * kLanes, sizeof x3);
        const double laj = la[j];
        const double lbj = lb[j];
        a0 -= laj * x0;
        a1 -= laj * x1;
        a2 -= laj * x2;
        a3 -= laj * x3;
        b0 -= lbj * x0;
        b1 -= lbj * x1;
        b2 -= lbj * x2;
        b3 -= lbj * x3;
      }
      const double lii = la[i];
      a0 /= lii;
      a1 /= lii;
      a2 /= lii;
      a3 /= lii;
      std::memcpy(va, &a0, sizeof a0);
      std::memcpy(va + kLanes, &a1, sizeof a1);
      std::memcpy(va + 2 * kLanes, &a2, sizeof a2);
      std::memcpy(va + 3 * kLanes, &a3, sizeof a3);
      Vec r0, r1, r2, r3;
      std::memcpy(&r0, red, sizeof r0);
      std::memcpy(&r1, red + kLanes, sizeof r1);
      std::memcpy(&r2, red + 2 * kLanes, sizeof r2);
      std::memcpy(&r3, red + 3 * kLanes, sizeof r3);
      r0 += a0 * a0;
      r1 += a1 * a1;
      r2 += a2 * a2;
      r3 += a3 * a3;
      if (pair) {
        const double lbi = lb[i];
        const double lbb = lb[i + 1];
        b0 = (b0 - lbi * a0) / lbb;
        b1 = (b1 - lbi * a1) / lbb;
        b2 = (b2 - lbi * a2) / lbb;
        b3 = (b3 - lbi * a3) / lbb;
        std::memcpy(vb, &b0, sizeof b0);
        std::memcpy(vb + kLanes, &b1, sizeof b1);
        std::memcpy(vb + 2 * kLanes, &b2, sizeof b2);
        std::memcpy(vb + 3 * kLanes, &b3, sizeof b3);
        r0 += b0 * b0;
        r1 += b1 * b1;
        r2 += b2 * b2;
        r3 += b3 * b3;
      }
      std::memcpy(red, &r0, sizeof r0);
      std::memcpy(red + kLanes, &r1, sizeof r1);
      std::memcpy(red + 2 * kLanes, &r2, sizeof r2);
      std::memcpy(red + 3 * kLanes, &r3, sizeof r3);
    }
  }
}

void solve_pairs(const Matrix& l, std::span<double> block, std::size_t stride,
                 std::span<double> reduction) {
  solve_tiles<Pair>(l, block, stride, reduction);
}

constexpr TileSolve kPairs{kVectorsPerRow * 2, &solve_pairs};

#if defined(__x86_64__)
// AVX2 only, never FMA: with FMA enabled the compiler may contract
// v -= l * x into one fused operation, whose single rounding changes the
// result bits.
__attribute__((target("avx2"))) void solve_quads(const Matrix& l,
                                                 std::span<double> block,
                                                 std::size_t stride,
                                                 std::span<double> reduction) {
  using Quad = double __attribute__((vector_size(32)));
  solve_tiles<Quad>(l, block, stride, reduction);
}

constexpr TileSolve kQuads{kVectorsPerRow * 4, &solve_quads};
#endif

}  // namespace

const TileSolve& pair_tile_solve() { return kPairs; }

const TileSolve* quad_tile_solve() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    return &kQuads;
  }
#endif
  return nullptr;
}

const TileSolve& tile_solve() {
  static const TileSolve* const quads = quad_tile_solve();
  return quads != nullptr ? *quads : kPairs;
}

}  // namespace acsel::linalg
