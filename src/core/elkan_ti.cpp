// Full Elkan triangle-inequality k-means (ICML'03) — the algorithm MTI
// simplifies. Maintains the O(nk) lower-bound matrix l(x,c) plus per-point
// upper bounds; prunes with all of Elkan's clauses. Included both as a
// correctness oracle for MTI and to let the Table 1 / Figure 8 benches show
// the memory trade-off the paper makes (O(nk) vs O(n) extra state).
//
// Runs on the full-scan skeleton (core/lloyd_loop.hpp): every per-point
// step is row-local, so the bound update by centroid drift (Elkan's steps
// 5-6) runs inside the next assignment pass, for each row just before its
// bounds are read; centroid sums accumulate per chunk and fold with the
// fixed tree, keeping results bitwise independent of thread count and
// steal order like the main engine (DESIGN.md §7).
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/memory_tracker.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/lloyd_loop.hpp"

namespace knor {
namespace {

struct ElkanStep {
  ElkanStep(ConstMatrixView m, const Options& opts)
      : K(kernels::ops_for(opts.simd)),
        data(m),
        d(m.cols()),
        k(opts.k),
        ub(static_cast<std::size_t>(m.rows()),
           std::numeric_limits<value_t>::infinity()),
        lb(static_cast<std::size_t>(m.rows()) * k, 0),
        c2c(static_cast<std::size_t>(k) * k, 0),
        s_half(static_cast<std::size_t>(k), 0),
        drift(static_cast<std::size_t>(k), 0),
        mem_lb("elkan-lower-bounds", lb.size() * sizeof(value_t)),
        mem_ub("elkan-upper-bounds", ub.size() * sizeof(value_t)) {}

  // Elkan's bound algebra is in TRUE distances; the kernels return squared.
  value_t edist(const value_t* a, const value_t* b) const {
    return std::sqrt(K.dist_sq(a, b, d));
  }
  /// Squared distance from row `v` to centroid c, for the argmin.
  value_t dist_sq(const value_t* v, int c) const {
    return K.dist_sq(v, cur->row(static_cast<index_t>(c)), d);
  }
  value_t& lbi(index_t r, int c) {
    return lb[static_cast<std::size_t>(r) * k + c];
  }

  void begin(const DenseMatrix& centroids) {
    cur = &centroids;
    for (int a = 0; a < k; ++a)
      for (int b = a + 1; b < k; ++b) {
        const value_t dab = edist(cur->row(static_cast<index_t>(a)),
                                  cur->row(static_cast<index_t>(b)));
        c2c[static_cast<std::size_t>(a) * k + b] = dab;
        c2c[static_cast<std::size_t>(b) * k + a] = dab;
      }
    for (int a = 0; a < k; ++a) {
      value_t m = std::numeric_limits<value_t>::infinity();
      for (int b = 0; b < k; ++b)
        if (b != a) m = std::min(m, c2c[static_cast<std::size_t>(a) * k + b]);
      s_half[static_cast<std::size_t>(a)] = k > 1 ? m * value_t(0.5) : 0;
    }
  }

  void assign(int, const sched::Task& task,
              const std::vector<cluster_t>& assignments, cluster_t* best,
              Counters& cnt) {
    for (index_t r = task.begin; r < task.end; ++r)
      best[r - task.begin] = assign_point(r, assignments[r], cnt);
  }

  // Steps 5-6, first half: each centroid's drift. The bounds absorb it in
  // the next assignment pass.
  void end(const DenseMatrix& prev, DenseMatrix& next) {
    for (int c = 0; c < k; ++c)
      drift[static_cast<std::size_t>(c)] =
          edist(prev.row(static_cast<index_t>(c)),
                next.row(static_cast<index_t>(c)));
  }

  double energy(const value_t* row, const value_t* centroid) const {
    return K.dist_sq(row, centroid, d);
  }

  /// Point r's cluster this iteration; `a` is its previous one.
  cluster_t assign_point(index_t r, cluster_t a, Counters& cnt) {
    const value_t* v = data.row(r);
    if (a == kInvalidCluster) {
      // First iteration: full scan seeds both bound structures. The argmin
      // is the full scan's least (dist_sq, index); the bounds are sqrts.
      value_t best_sq = std::numeric_limits<value_t>::infinity();
      cluster_t best = 0;
      for (int c = 0; c < k; ++c) {
        const value_t dc_sq = dist_sq(v, c);
        ++cnt.dist_computations;
        lbi(r, c) = std::sqrt(dc_sq);
        if (dc_sq < best_sq) {
          best_sq = dc_sq;
          best = static_cast<cluster_t>(c);
        }
      }
      ub[r] = lbi(r, best);
      return best;
    }

    // Steps 5-6, second half: loosen the bounds by the last update's drift.
    for (int c = 0; c < k; ++c) {
      auto& l = lbi(r, c);
      l = std::max(value_t(0), l - drift[static_cast<std::size_t>(c)]);
    }
    ub[r] += drift[a];

    // Elkan step 2: skip the whole point when u(x) < s(c(x)). Every clause
    // skips only on a strict bound, which rules out a tie as well as a win
    // (DESIGN.md §3).
    if (ub[r] < s_half[a]) {
      ++cnt.clause1_skips;
      return a;
    }
    bool tight = false;
    value_t best_d = ub[r];
    value_t best_sq = 0;  // set when the bound is tightened
    cluster_t best = a;
    for (int c = 0; c < k; ++c) {
      if (static_cast<cluster_t>(c) == best) continue;
      // Step 3 conditions: candidate must beat both its lower bound and
      // the inter-centroid separation.
      if (best_d < lbi(r, c)) {
        ++cnt.clause2_skips;
        continue;
      }
      if (best_d < value_t(0.5) *
                       c2c[static_cast<std::size_t>(best) * k + c]) {
        ++cnt.clause3_skips;
        continue;
      }
      if (!tight) {
        // 3a: tighten u(x) = d(x, c(x)).
        best_sq = dist_sq(v, best);
        best_d = std::sqrt(best_sq);
        ++cnt.dist_computations;
        lbi(r, best) = best_d;
        tight = true;
        if (best_d < lbi(r, c) ||
            best_d < value_t(0.5) *
                         c2c[static_cast<std::size_t>(best) * k + c])
          continue;
      }
      // 3b: compute d(x, c); the least (dist_sq, index) wins.
      const value_t dc_sq = dist_sq(v, c);
      ++cnt.dist_computations;
      lbi(r, c) = std::sqrt(dc_sq);
      if (dc_sq <= best_sq &&
          (dc_sq < best_sq || static_cast<cluster_t>(c) < best)) {
        best_sq = dc_sq;
        best_d = lbi(r, c);
        best = static_cast<cluster_t>(c);
      }
    }
    ub[r] = best_d;
    return best;
  }

  const kernels::Ops& K;
  ConstMatrixView data;
  index_t d;
  int k;
  const DenseMatrix* cur = nullptr;
  // Elkan state: upper bound u(x), lower bounds l(x,c) — the O(nk) matrix —
  // plus the c2c distances, per-centroid separations and the last drift.
  std::vector<value_t> ub;
  std::vector<value_t> lb;
  std::vector<value_t> c2c;
  std::vector<value_t> s_half;
  std::vector<value_t> drift;
  ScopedAlloc mem_lb;
  ScopedAlloc mem_ub;
};

}  // namespace

Result elkan_ti(ConstMatrixView data, const Options& opts) {
  DenseMatrix cur = init_centroids(data, opts);
  ElkanStep step(data, opts);
  return detail::LloydLoop(data, opts).run(std::move(cur), step);
}

}  // namespace knor
