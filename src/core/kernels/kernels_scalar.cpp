// Scalar kernel table: thin adapters over the legacy reference
// implementations in core/distance.hpp. `--simd scalar` must reproduce the
// pre-SIMD engines bit-for-bit, so this TU adds no arithmetic of its own —
// it only routes through the exact functions the engines used to inline.
#include <limits>

#include "core/distance.hpp"
#include "core/kernels/isa_tables.hpp"

namespace knor::kernels::detail {
namespace {

value_t scalar_dist_sq(const value_t* a, const value_t* b, index_t d) {
  return knor::dist_sq(a, b, d);
}

value_t scalar_dot(const value_t* a, const value_t* b, index_t d) {
  return knor::dot(a, b, d);
}

cluster_t scalar_nearest(const value_t* point, const value_t* centroids,
                         int k, index_t d, value_t* out_sq) {
  return knor::nearest_centroid(point, centroids, k, d, out_sq);
}

// The pack's rows hold the same d leading values as the original centroid
// matrix and the scalar loop never reads past d, so this is bitwise equal
// to the legacy k-successive-dist_sq scan.
cluster_t scalar_nearest_blocked(const value_t* point,
                                 const CentroidPack& pack, value_t* out_sq) {
  const int k = pack.k();
  const index_t d = pack.d();
  cluster_t best = 0;
  value_t best_sq = std::numeric_limits<value_t>::infinity();
  for (int c = 0; c < k; ++c) {
    const value_t dc = knor::dist_sq(point, pack.row(c), d);
    if (dc < best_sq) {
      best_sq = dc;
      best = static_cast<cluster_t>(c);
    }
  }
  if (out_sq != nullptr) *out_sq = best_sq;
  return best;
}

// The same d leading values and the same loop as scalar_nearest_blocked,
// so out[i] is bitwise knor::dist_sq on row idx[i].
void scalar_dist_sq_list(const value_t* point, const CentroidPack& pack,
                         const cluster_t* idx, int m, value_t* out) {
  const index_t d = pack.d();
  for (int i = 0; i < m; ++i)
    out[i] = knor::dist_sq(point, pack.row(static_cast<int>(idx[i])), d);
}

// Fused-scalar GEMM-argmin reference (DESIGN.md §12): per (row, centroid)
// the dot product accumulates strictly sequentially over the depth —
// ascending col-panels, ascending columns — which is the exact reduction
// order the vector variants reproduce lane-by-lane. On integer-valued data
// every sum is exact, so all ISAs agree with this reference bitwise
// (tests/conformance_test.cpp's GEMM clause).
void scalar_gemm_argmin(const value_t* a, index_t mrows, index_t lda,
                        const TiledMatrix& b, index_t p0, index_t p1,
                        const value_t* cnorm, cluster_t* best,
                        value_t* score) {
  const index_t rs = b.row_stride();
  const index_t k = b.rows();
  const index_t cp = b.col_panels();
  const index_t cb = b.col_block();
  const std::size_t panel_elems = static_cast<std::size_t>(rs) * cb;
  for (index_t i = 0; i < mrows; ++i) {
    const value_t* row = a + i * lda;
    for (index_t P = p0; P < p1; ++P) {
      const index_t jbase = P * kGemmPanelWidth;
      const index_t jcnt =
          k - jbase < kGemmPanelWidth ? k - jbase : kGemmPanelWidth;
      value_t dots[kGemmPanelWidth] = {};
      const value_t* base = b.panel(P, 0);
      for (index_t J = 0; J < cp; ++J) {
        const value_t* pp = base + J * panel_elems;
        const index_t cm = b.panel_cols(J);
        for (index_t c = 0; c < cm; ++c) {
          const value_t av = row[J * cb + c];
          const value_t* line = pp + c * rs;
          for (index_t t = 0; t < jcnt; ++t) dots[t] += av * line[t];
        }
      }
      for (index_t t = 0; t < jcnt; ++t) {
        const value_t s = cnorm[jbase + t] - 2 * dots[t];
        if (s < score[i]) {
          score[i] = s;
          best[i] = static_cast<cluster_t>(jbase + t);
        }
      }
    }
  }
}

}  // namespace

Ops scalar_ops() {
  Ops ops;
  ops.isa = Isa::kScalar;
  ops.dist_sq = &scalar_dist_sq;
  ops.dot = &scalar_dot;
  ops.nearest = &scalar_nearest;
  ops.nearest_blocked = &scalar_nearest_blocked;
  ops.dist_sq_list = &scalar_dist_sq_list;
  ops.gemm_argmin = &scalar_gemm_argmin;
  return ops;
}

}  // namespace knor::kernels::detail
