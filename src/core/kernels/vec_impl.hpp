// Shared skeleton for the vector ISA variants (SSE2 / AVX2 / AVX-512).
//
// Each ISA translation unit instantiates these templates with a Traits
// type supplying the intrinsics. Keeping the algorithm in ONE place is
// what enforces the determinism contract of simd.hpp:
//
//  * dist_sq_t uses a fixed two-accumulator chunk schedule — main loop in
//    2W-element steps (acc0 then acc1), one optional W-element step into
//    acc0, one optional masked partial step into acc1 — and a fixed
//    horizontal reduction hsum(acc0 + acc1). No data-dependent control
//    flow, so results are bitwise stable run to run.
//
//  * tile_dist_sq_t runs the SAME per-centroid schedule for a tile of
//    kTile centroid rows at once, sharing each point chunk across the
//    tile. Per row it issues the identical FP operation sequence into its
//    own acc0/acc1 pair, so every tile distance is bitwise EQUAL to
//    dist_sq_t on that row. The tile only buys locality and ILP: the
//    point chunk is loaded once per tile instead of once per row, and
//    kTile independent FMA chains keep the pipeline full. Both blocked
//    kernels are written over it: nearest_blocked_t tiles the pack's rows
//    in order, dist_sq_list_t tiles the rows a candidate list names, and
//    each finishes a short remainder with dist_sq_t on the padded rows.
//
//  * The masked partial chunk masks the POINT load; the centroid side is a
//    full-width aligned load whose padding lanes the CentroidPack
//    guarantees to be +0.0. Masked-off point lanes are +0.0 too, so the
//    lane difference is exactly +0.0 and fma(0, 0, acc) == acc bitwise —
//    the partial chunk contributes only its live lanes, identically in
//    dist_sq_t (both operands masked) and tile_dist_sq_t (point masked,
//    centroid padded).
//
// Traits interface:
//   using vec;                      // the register type
//   static constexpr index_t kW;    // lanes per vector
//   static vec zero();
//   static vec loadu(const value_t*);          // unaligned full load
//   static vec load(const value_t*);           // 64B-aligned full load
//   static vec load_partial(const value_t*, index_t rem);  // rem in [1, kW)
//   static vec diff_fma(vec a, vec b, vec acc);  // acc + (a-b)*(a-b)
//   static vec mul_fma(vec a, vec b, vec acc);   // acc + a*b
//   static vec add(vec, vec);
//   static value_t hsum(vec);       // fixed reduction tree
//   static void reduce_tile(const vec s[kTile], value_t out[kTile]);
//     // out[t] must be bitwise == hsum(s[t]); a Traits may batch the
//     // four reductions with shuffles as long as the per-accumulator
//     // ASSOCIATION matches its hsum exactly
//   static vec broadcast(value_t);             // splat one scalar
//   static void storeu(value_t*, vec);         // unaligned full store
//
//  * gemm_argmin_t (DESIGN.md §12) needs no horizontal reduction at all:
//    each lane of a panel column line IS one centroid, so a lane's
//    accumulator holds that centroid's full dot product — accumulated
//    strictly sequentially over the depth by construction, for every lane
//    width. That single property makes the fused GEMM result bitwise
//    invariant across register-block (mr), cache-tile and panel-range
//    choices per ISA, which is what lets --gemm-tile be a pure
//    performance knob.
#pragma once

#include <cassert>
#include <limits>

#include "common/types.hpp"
#include "core/kernels/simd.hpp"

namespace knor::kernels::detail {

/// Centroids per register-blocked tile. 4 keeps the working set at
/// 8 accumulators + 2 point chunks, inside even the 16-register SSE/AVX
/// file, while giving 8 independent FMA chains.
inline constexpr int kTile = 4;

template <class V>
value_t dist_sq_t(const value_t* a, const value_t* b, index_t d) {
  typename V::vec acc0 = V::zero(), acc1 = V::zero();
  index_t j = 0;
  for (; j + 2 * V::kW <= d; j += 2 * V::kW) {
    acc0 = V::diff_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    acc1 = V::diff_fma(V::loadu(a + j + V::kW), V::loadu(b + j + V::kW), acc1);
  }
  if (j + V::kW <= d) {
    acc0 = V::diff_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    j += V::kW;
  }
  if (j < d)
    acc1 = V::diff_fma(V::load_partial(a + j, d - j),
                       V::load_partial(b + j, d - j), acc1);
  return V::hsum(V::add(acc0, acc1));
}

template <class V>
value_t dot_t(const value_t* a, const value_t* b, index_t d) {
  typename V::vec acc0 = V::zero(), acc1 = V::zero();
  index_t j = 0;
  for (; j + 2 * V::kW <= d; j += 2 * V::kW) {
    acc0 = V::mul_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    acc1 = V::mul_fma(V::loadu(a + j + V::kW), V::loadu(b + j + V::kW), acc1);
  }
  if (j + V::kW <= d) {
    acc0 = V::mul_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    j += V::kW;
  }
  if (j < d)
    acc1 = V::mul_fma(V::load_partial(a + j, d - j),
                      V::load_partial(b + j, d - j), acc1);
  return V::hsum(V::add(acc0, acc1));
}

template <class V>
cluster_t nearest_t(const value_t* point, const value_t* centroids, int k,
                    index_t d, value_t* out_sq) {
  cluster_t best = 0;
  value_t best_sq = std::numeric_limits<value_t>::infinity();
  for (int c = 0; c < k; ++c) {
    const value_t dc =
        dist_sq_t<V>(point, centroids + static_cast<std::size_t>(c) * d, d);
    if (dc < best_sq) {
      best_sq = dc;
      best = static_cast<cluster_t>(c);
    }
  }
  if (out_sq != nullptr) *out_sq = best_sq;
  return best;
}

/// Squared distances from `point` to the kTile padded pack rows `rows`,
/// each bitwise equal to dist_sq_t on that row (see the header comment).
/// Forced inline: as a call, the accumulators and the result go through
/// memory once per tile, which costs the blocked kernels their speed.
template <class V>
[[gnu::always_inline]] inline void tile_dist_sq_t(const value_t* point,
                                                  const value_t* const* rows,
                                                  index_t d, value_t* out) {
  typename V::vec acc0[kTile], acc1[kTile];
  for (int t = 0; t < kTile; ++t) {
    acc0[t] = V::zero();
    acc1[t] = V::zero();
  }
  index_t j = 0;
  for (; j + 2 * V::kW <= d; j += 2 * V::kW) {
    const typename V::vec p0 = V::loadu(point + j);
    const typename V::vec p1 = V::loadu(point + j + V::kW);
    for (int t = 0; t < kTile; ++t) {
      acc0[t] = V::diff_fma(p0, V::load(rows[t] + j), acc0[t]);
      acc1[t] = V::diff_fma(p1, V::load(rows[t] + j + V::kW), acc1[t]);
    }
  }
  if (j + V::kW <= d) {
    const typename V::vec p0 = V::loadu(point + j);
    for (int t = 0; t < kTile; ++t)
      acc0[t] = V::diff_fma(p0, V::load(rows[t] + j), acc0[t]);
    j += V::kW;
  }
  if (j < d) {
    // Point masked, centroid full-width: the pack's zero padding makes
    // the dead lanes contribute exactly nothing (see header comment).
    const typename V::vec pp = V::load_partial(point + j, d - j);
    for (int t = 0; t < kTile; ++t)
      acc1[t] = V::diff_fma(pp, V::load(rows[t] + j), acc1[t]);
  }
  typename V::vec sums[kTile];
  for (int t = 0; t < kTile; ++t) sums[t] = V::add(acc0[t], acc1[t]);
  V::reduce_tile(sums, out);  // out[t] bitwise == hsum(sums[t])
}

template <class V>
cluster_t nearest_blocked_t(const value_t* point, const CentroidPack& pack,
                            value_t* out_sq) {
  const int k = pack.k();
  const index_t d = pack.d();
  cluster_t best = 0;
  value_t best_sq = std::numeric_limits<value_t>::infinity();
  int c = 0;
  for (; c + kTile <= k; c += kTile) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t) rows[t] = pack.row(c + t);
    value_t dist[kTile];
    tile_dist_sq_t<V>(point, rows, d, dist);
    for (int t = 0; t < kTile; ++t) {
      if (dist[t] < best_sq) {
        best_sq = dist[t];
        best = static_cast<cluster_t>(c + t);
      }
    }
  }
  // Remainder centroids (k % kTile): the per-centroid schedule on the
  // padded rows — same bits as dist_sq_t on the original rows.
  for (; c < k; ++c) {
    const value_t dc = dist_sq_t<V>(point, pack.row(c), d);
    if (dc < best_sq) {
      best_sq = dc;
      best = static_cast<cluster_t>(c);
    }
  }
  if (out_sq != nullptr) *out_sq = best_sq;
  return best;
}

/// nearest_blocked_t's tile schedule over the m pack rows `idx` names, in
/// list order: out[i] is bitwise dist_sq_t(point, row idx[i]).
template <class V>
void dist_sq_list_t(const value_t* point, const CentroidPack& pack,
                    const cluster_t* idx, int m, value_t* out) {
  const index_t d = pack.d();
  int i = 0;
  for (; i + kTile <= m; i += kTile) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t)
      rows[t] = pack.row(static_cast<int>(idx[i + t]));
    tile_dist_sq_t<V>(point, rows, d, out + i);
  }
  for (; i < m; ++i)
    out[i] = dist_sq_t<V>(point, pack.row(static_cast<int>(idx[i])), d);
}

/// Data rows per register block of the fused GEMM kernel: 4 rows x
/// (kGemmPanelWidth / kW) accumulators + one broadcast + the shared column
/// line stays inside the 16-register AVX file; SSE2 spills but SSE2 is the
/// compatibility tier, not the performance tier. The value is a pure
/// scheduling choice — per-row state is independent, so results do not
/// depend on it (see gemm_argmin_t).
inline constexpr index_t kGemmMr = 4;

template <class V>
void gemm_argmin_t(const value_t* a, index_t mrows, index_t lda,
                   const TiledMatrix& b, index_t p0, index_t p1,
                   const value_t* cnorm, cluster_t* best, value_t* score) {
  // One column line = kGemmPanelWidth lanes = kNV vectors of this ISA.
  constexpr index_t kNV = kGemmPanelWidth / V::kW;
  static_assert(kGemmPanelWidth % V::kW == 0,
                "panel width must be a whole number of vectors");
  const index_t rs = b.row_stride();
  assert(b.row_block() == kGemmPanelWidth && rs == kGemmPanelWidth);
  const index_t k = b.rows();
  const index_t cp = b.col_panels();
  const index_t cb = b.col_block();

  for (index_t i0 = 0; i0 < mrows; i0 += kGemmMr) {
    const index_t im = mrows - i0 < kGemmMr ? mrows - i0 : kGemmMr;
    for (index_t P = p0; P < p1; ++P) {
      typename V::vec acc[kGemmMr][kNV];
      for (index_t i = 0; i < im; ++i)
        for (index_t v = 0; v < kNV; ++v) acc[i][v] = V::zero();
      // Ascending col-panels, ascending columns inside each: lane j of
      // acc[i] accumulates <row i0+i, centroid P*width+j> strictly
      // sequentially over the depth, whatever the pack's col_block is.
      const value_t* base = b.panel(P, 0);
      const std::size_t panel_elems = static_cast<std::size_t>(rs) * cb;
      for (index_t J = 0; J < cp; ++J) {
        const value_t* pp = base + J * panel_elems;
        const index_t cm = b.panel_cols(J);
        const value_t* arow = a + J * cb;
        for (index_t c = 0; c < cm; ++c) {
          const value_t* line = pp + c * rs;
          for (index_t i = 0; i < im; ++i) {
            const typename V::vec av =
                V::broadcast(arow[(i0 + i) * lda + c]);
            for (index_t v = 0; v < kNV; ++v)
              acc[i][v] = V::mul_fma(av, V::load(line + v * V::kW),
                                     acc[i][v]);
          }
        }
      }
      // Fused epilogue: score = ||c||^2 - 2 x.c per live lane, compared in
      // ascending j (strict '<' keeps ties -> lowest index). Padding lanes
      // (j >= k) are simply never visited.
      const index_t jbase = P * kGemmPanelWidth;
      const index_t jcnt =
          k - jbase < kGemmPanelWidth ? k - jbase : kGemmPanelWidth;
      for (index_t i = 0; i < im; ++i) {
        value_t dots[kGemmPanelWidth];
        for (index_t v = 0; v < kNV; ++v)
          V::storeu(dots + v * V::kW, acc[i][v]);
        value_t& bs = score[i0 + i];
        cluster_t& bb = best[i0 + i];
        for (index_t t = 0; t < jcnt; ++t) {
          const value_t s = cnorm[jbase + t] - 2 * dots[t];
          if (s < bs) {
            bs = s;
            bb = static_cast<cluster_t>(jbase + t);
          }
        }
      }
    }
  }
}

template <class V>
Ops make_ops(Isa isa) {
  Ops ops;
  ops.isa = isa;
  ops.dist_sq = &dist_sq_t<V>;
  ops.dot = &dot_t<V>;
  ops.nearest = &nearest_t<V>;
  ops.nearest_blocked = &nearest_blocked_t<V>;
  ops.dist_sq_list = &dist_sq_list_t<V>;
  ops.gemm_argmin = &gemm_argmin_t<V>;
  return ops;
}

}  // namespace knor::kernels::detail
