// Minimal Triangle Inequality (MTI) pruning state — the paper's §4
// modification of Elkan's algorithm that drops the O(nk) lower-bound matrix.
//
// Memory: O(n) upper bounds + O(k^2) centroid-to-centroid distances +
// O(k) drifts — the paper's "6-10 bytes per point" overhead.
//
// Per iteration:
//   * prepare(prev, cur, K) computes the c2c distance matrix, per-centroid
//     separation s_half(c) = 1/2 min_{c' != c} d(c, c'), and the drift
//     f(c) = d(c_prev, c_cur) used to loosen bounds.
//   * For each point i with assignment a and loosened bound
//     ub = ub[i] + f(a):
//       Clause 1: ub < s_half(a)            -> keep cluster, no distance
//                 computation at all (and, in knors, no I/O request).
//       Clause 2: ub < 1/2 d(a, c)          -> skip candidate c before
//                 tightening.
//       Clause 3: after tightening ub = d(v, c_best) (one computation),
//                 skip c when ub < 1/2 d(best, c).
//     Clauses 2 and 3 and the argmin are nearest_pruned, the one routine
//     knori, knord and knors call. Each clause skips only when its bound
//     rules out a tie as well as a win, and the winner is the least
//     (dist_sq, index) — the full scan's rule (DESIGN.md §3).
// All bounds are on Euclidean (not squared) distances, as the triangle
// inequality requires.
#pragma once

#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/dense_matrix.hpp"
#include "common/types.hpp"
#include "core/kernels/simd.hpp"
#include "core/kmeans_types.hpp"

namespace knor {

/// A pruned row's winner and its tightened bound d(v, best).
struct PrunedNearest {
  cluster_t best;
  value_t best_d;
};

class MtiState {
 public:
  MtiState() = default;
  MtiState(index_t n, int k);

  /// Recompute c2c distances, s_half and drift for a new iteration.
  /// `prev` may be empty on the first call (drift = 0). `K` is the
  /// engine's hoisted kernel table, so the bounds use the SAME ISA as the
  /// distances they gate even if another thread retargets the process-
  /// wide dispatch mid-run.
  void prepare(const DenseMatrix& prev, const DenseMatrix& cur,
               const kernels::Ops& K);

  /// Upper bound of point i (Euclidean).
  value_t ub(index_t i) const { return ub_[i]; }
  void set_ub(index_t i, value_t v) { ub_[i] = v; }

  /// Centroid drift f(c) = d(c_prev, c_cur).
  value_t drift(cluster_t c) const { return drift_[c]; }
  /// Half the distance from c to its nearest other centroid.
  value_t s_half(cluster_t c) const { return s_half_[c]; }
  /// Centroid-to-centroid Euclidean distance.
  value_t c2c(cluster_t a, cluster_t b) const {
    return c2c_[static_cast<std::size_t>(a) * k_ + b];
  }

  /// Clause 1: true when the loosened bound proves point i's assignment
  /// cannot change this iteration.
  bool clause1(cluster_t assign, value_t loosened_ub) const {
    return loosened_ub < s_half_[assign];
  }

  /// Clauses 2 and 3 and the argmin for row `v`, assigned to `a`, whose
  /// loosened bound survived clause 1 (DESIGN.md §3). Gathers `a` and
  /// clause 2's survivors in ascending order into `cand`, evaluates them
  /// with one dist_sq_list call into `cand_sq` (k entries each), then
  /// replays clause 3 and the argmin over the buffer. The winner is the
  /// least (dist_sq, index), as in nearest_blocked.
  [[gnu::always_inline]] PrunedNearest nearest_pruned(
      const value_t* v, cluster_t a, value_t loosened,
      const kernels::CentroidPack& pack, const kernels::Ops& K,
      cluster_t* cand, value_t* cand_sq, Counters& cnt) const {
    const value_t* c2c_a = &c2c_[static_cast<std::size_t>(a) * k_];
    int m = 0;
    cand[m++] = a;
    for (int c = 0; c < k_; ++c) {
      if (static_cast<cluster_t>(c) == a) continue;
      if (loosened < value_t(0.5) * c2c_a[c]) {
        ++cnt.clause2_skips;
        continue;
      }
      cand[m++] = static_cast<cluster_t>(c);
    }
    K.dist_sq_list(v, pack, cand, m, cand_sq);
    value_t best_sq = cand_sq[0];
    value_t best_d = std::sqrt(best_sq);
    ++cnt.dist_computations;
    cluster_t best = a;
    for (int i = 1; i < m; ++i) {
      const cluster_t c = cand[i];
      if (best_d < value_t(0.5) * c2c(best, c)) {
        ++cnt.clause3_skips;
        continue;
      }
      ++cnt.dist_computations;
      // A tie goes to the lower index; after `a` the list ascends, so that
      // can happen only while best is still `a`. Testing <= first keeps the
      // common losing entry at one compare.
      if (cand_sq[i] <= best_sq && (cand_sq[i] < best_sq || c < best)) {
        best_sq = cand_sq[i];
        best_d = std::sqrt(best_sq);
        best = c;
      }
    }
    return {best, best_d};
  }

  int k() const { return k_; }
  index_t n() const { return ub_.size(); }
  std::size_t bytes() const {
    return ub_.size() * sizeof(value_t) + c2c_.size() * sizeof(value_t) +
           (drift_.size() + s_half_.size()) * sizeof(value_t);
  }

 private:
  int k_ = 0;
  AlignedBuffer<value_t> ub_;
  std::vector<value_t> c2c_;     ///< k*k (full, symmetric)
  std::vector<value_t> drift_;   ///< k
  std::vector<value_t> s_half_;  ///< k
};

namespace detail {

/// The MTI bounds a checkpoint stores, one per row of the view: each row's
/// bound pre-loosened against the view's centroids, ub + drift(a), so a
/// resumed run restarts with drift 0 and stays bitwise exact (ResumeState).
/// Empty when MTI is off. knors and knord both checkpoint through it.
std::vector<value_t> checkpoint_bounds(const IterationView& view);

}  // namespace detail

}  // namespace knor
