// Blocked-GEMM Lloyd's — the MATLAB/BLAS comparator of Table 3, now a true
// tiled engine (DESIGN.md §12).
//
// Phase I is expressed algebraically: d^2(x, c) = ||x||^2 - 2 x.c + ||c||^2,
// so the assignment is an argmin over the rank-d product X C^T plus rank-1
// corrections. Instead of materializing the n x k product (the old
// implementation's memory cost), centroids are packed once per iteration
// into a 2D-partitioned TiledMatrix — row-blocks of kGemmPanelWidth
// centroids x col-blocks of the depth, every panel 64-byte aligned — and
// the per-ISA register-tiled gemm_argmin kernel streams cache-sized tiles
// of data rows against centroid panels with the fused
// ||x||^2 + ||c||^2 - 2 x.c argmin epilogue: only mr x nr accumulator
// tiles ever exist, and each panel sweep is amortized over a whole row
// block (where the row-at-a-time K.dot formulation reloaded all k
// centroids per point).
//
// Determinism: the cache tile (--gemm-tile) is a pure performance knob.
// Each (row, centroid) dot accumulates strictly sequentially over the
// depth inside the kernel, panels are swept in ascending centroid order,
// and the per-chunk accumulators of the full-scan skeleton
// (core/lloyd_loop.hpp) stay keyed to the scheduler's 1D row-chunk grid
// with the fixed-tree fold — so centroids and assignments are bitwise
// invariant across tile shapes, thread counts and scheduling policies (the
// §7/§8 contract, extended by §12; pinned in conformance_test and
// exactness_test).
#include <limits>
#include <vector>

#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/lloyd_loop.hpp"

namespace knor {
namespace {

struct GemmStep {
  GemmStep(ConstMatrixView m, const Options& opts, int threads)
      // Hoisted once per run: no engine mutates the process-global
      // dispatch, so two concurrent runs with different --simd cannot
      // retarget each other's kernels.
      : K(kernels::ops_for(opts.simd)),
        data(m),
        d(m.cols()),
        k(opts.k),
        // Cache-level blocking: `tile.rows` data rows share each sweep over
        // `tile.cols / kGemmPanelWidth` centroid panels. The 2D tile grid is
        // (scheduler row chunk x centroid panel range); accumulation stays
        // keyed to the 1D row-chunk slots, so the centroid cut never
        // affects results.
        tile(resolve_gemm_tile(opts.gemm_tile, m.rows(), opts.k)),
        panels((static_cast<index_t>(k) + kernels::kGemmPanelWidth - 1) /
               kernels::kGemmPanelWidth),
        panel_step(tile.cols / kernels::kGemmPanelWidth),
        cnorm(static_cast<std::size_t>(k)),
        tscore(static_cast<std::size_t>(threads),
               std::vector<value_t>(static_cast<std::size_t>(tile.rows))) {}

  // Packing discipline: centroids move every iteration until convergence,
  // so the panels (and the fused epilogue's ||c||^2 terms) are rebuilt
  // once per iteration on the driver thread — O(k*d), noise next to the
  // O(n*k*d) product. A frozen-centroid caller (e.g. assignment-only
  // serving) would pack exactly once per run.
  void begin(const DenseMatrix& cur) {
    ctiles.pack(cur.const_view(), kernels::kGemmPanelWidth, d);
    for (int c = 0; c < k; ++c) {
      const value_t* row = cur.row(static_cast<index_t>(c));
      cnorm[static_cast<std::size_t>(c)] = K.dot(row, row, d);
    }
  }

  void assign(int tid, const sched::Task& task,
              const std::vector<cluster_t>&, cluster_t* best,
              Counters& cnt) {
    value_t* score = tscore[static_cast<std::size_t>(tid)].data();
    for (index_t r0 = task.begin; r0 < task.end; r0 += tile.rows) {
      const index_t m = task.end - r0 < tile.rows ? task.end - r0 : tile.rows;
      cluster_t* b = best + (r0 - task.begin);
      for (index_t i = 0; i < m; ++i) {
        score[i] = std::numeric_limits<value_t>::infinity();
        b[i] = 0;
      }
      // Streamed k-panel argmin: ascending panel ranges keep the
      // ties->lowest-index rule; the running (best, score) state is all
      // that persists between sweeps.
      for (index_t p0 = 0; p0 < panels; p0 += panel_step)
        K.gemm_argmin(data.row(r0), m, d, ctiles, p0,
                      panels - p0 < panel_step ? panels : p0 + panel_step,
                      cnorm.data(), b, score);
    }
    // The product computes every pair — that is the point.
    cnt.dist_computations += task.size() * static_cast<std::uint64_t>(k);
  }

  void end(const DenseMatrix&, DenseMatrix&) {}

  double energy(const value_t* row, const value_t* centroid) const {
    return K.dist_sq(row, centroid, d);
  }

  const kernels::Ops& K;
  ConstMatrixView data;
  index_t d;
  int k;
  GemmTile tile;
  index_t panels;
  index_t panel_step;
  std::vector<value_t> cnorm;
  TiledMatrix ctiles;
  // Per-worker running argmin scores for one row block (score = fused
  // ||c||^2 - 2 x.c; the ||x||^2 term is row-constant and drops out).
  std::vector<std::vector<value_t>> tscore;
};

}  // namespace

Result gemm_kmeans(ConstMatrixView data, const Options& opts) {
  DenseMatrix cur = init_centroids(data, opts);
  detail::LloydLoop loop(data, opts);
  GemmStep step(data, opts, loop.threads());
  return loop.run(std::move(cur), step);
}

}  // namespace knor
