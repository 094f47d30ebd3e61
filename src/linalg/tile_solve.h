// Tiled forward substitution for the GP predictive variance (internal to
// core::GpRegressor; tests include it to run each compiled form).
//
// The GP posterior at m query points needs v = L⁻¹ k* for each point's
// kernel column k* and the squared norm |v|². The solve runs over an
// n × stride row-major block holding those columns, one tile of columns
// at a time, so the factor is read once per tile instead of once per
// point. Each column still takes its updates from rows 0..i-1 one
// subtraction at a time in j order, then its division, exactly as a
// single-column solve does, and its squared norm is summed in i order
// from 0.0: every instantiation gives bitwise the scalar result.
//
// Two instantiations of one tile body exist:
//  * pairs — 16-byte vectors of two doubles, one tile of 8 columns; the
//    path on every host;
//  * quads — 32-byte vectors of four doubles, one tile of 16 columns,
//    compiled for AVX2 (x86-64 only) and used when the CPU has it.
// Both step over rows i and i+1 together, sharing the loads of rows
// 0..i-1 between two rows' updates.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.h"

namespace acsel::linalg {

/// One compiled form of the tiled forward solve.
struct TileSolve {
  /// Columns per tile; the block's stride must be a multiple of it.
  std::size_t tile_columns;
  /// Overwrites each column b of the l.rows() × stride block with L⁻¹ b,
  /// L the lower triangle of `l`, and adds the column's squared norm to
  /// reduction[c] (reduction.size() == stride; pass zeros).
  void (*solve)(const Matrix& l, std::span<double> block, std::size_t stride,
                std::span<double> reduction);
};

/// The 16-byte-pair form, usable on every host.
const TileSolve& pair_tile_solve();

/// The AVX2 form, or nullptr when this build is not for x86-64 or the
/// CPU lacks AVX2.
const TileSolve* quad_tile_solve();

/// The form this process uses: quads when quad_tile_solve() has one,
/// pairs otherwise. Chosen once, by a CPU check.
const TileSolve& tile_solve();

}  // namespace acsel::linalg
