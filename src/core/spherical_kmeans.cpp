#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/lloyd_loop.hpp"
#include "core/variants.hpp"

namespace knor {
namespace {

// The dot kernel (larger = more similar on the sphere) comes from
// kernels::ops(); the scalar reference lives in core/distance.hpp.

/// L2-normalize every row of `m` in place; throws on zero rows (no
/// direction on the sphere).
void normalize_rows(DenseMatrix& m) {
  for (index_t r = 0; r < m.rows(); ++r) {
    value_t* row = m.row(r);
    value_t norm_sq = 0;
    for (index_t j = 0; j < m.cols(); ++j) norm_sq += row[j] * row[j];
    if (norm_sq <= 0)
      throw std::invalid_argument(
          "spherical_kmeans: zero row has no direction");
    const value_t inv = value_t(1) / std::sqrt(norm_sq);
    for (index_t j = 0; j < m.cols(); ++j) row[j] *= inv;
  }
}

/// Re-normalize a centroid after the mean update; an all-zero mean (empty
/// cluster handled upstream; exact cancellation is measure-zero) keeps the
/// previous direction.
void normalize_centroid(value_t* c, const value_t* prev, index_t d) {
  value_t norm_sq = 0;
  for (index_t j = 0; j < d; ++j) norm_sq += c[j] * c[j];
  if (norm_sq <= 0) {
    std::memcpy(c, prev, d * sizeof(value_t));
    return;
  }
  const value_t inv = value_t(1) / std::sqrt(norm_sq);
  for (index_t j = 0; j < d; ++j) c[j] *= inv;
}

// Assigns by largest cosine; the means leave the sphere, so end() puts them
// back.
struct SphericalStep {
  const kernels::Ops& K;
  ConstMatrixView unit;
  int k;
  const DenseMatrix* cur = nullptr;

  void begin(const DenseMatrix& centroids) { cur = &centroids; }

  void assign(int, const sched::Task& task, const std::vector<cluster_t>&,
              cluster_t* best, Counters& cnt) {
    const index_t d = unit.cols();
    for (index_t r = task.begin; r < task.end; ++r) {
      const value_t* v = unit.row(r);
      cluster_t b = 0;
      value_t best_sim = K.dot(v, cur->row(0), d);
      for (int c = 1; c < k; ++c) {
        const value_t sim = K.dot(v, cur->row(static_cast<index_t>(c)), d);
        if (sim > best_sim) {
          best_sim = sim;
          b = static_cast<cluster_t>(c);
        }
      }
      best[r - task.begin] = b;
    }
    cnt.dist_computations += task.size() * static_cast<std::uint64_t>(k);
  }

  void end(const DenseMatrix& prev, DenseMatrix& next) {
    for (int c = 0; c < k; ++c)
      normalize_centroid(next.row(static_cast<index_t>(c)),
                         prev.row(static_cast<index_t>(c)), unit.cols());
  }

  double energy(const value_t* row, const value_t* centroid) const {
    return 1.0 - K.dot(row, centroid, unit.cols());
  }
};

}  // namespace

Result spherical_kmeans(ConstMatrixView data, const Options& opts) {
  if (data.empty())
    throw std::invalid_argument("spherical_kmeans: empty dataset");
  const index_t d = data.cols();

  // Work on a normalized copy (rows on the unit sphere).
  DenseMatrix unit(data.rows(), d);
  std::memcpy(unit.data(), data.data(), unit.size() * sizeof(value_t));
  normalize_rows(unit);

  DenseMatrix cur = init_centroids(unit.const_view(), opts);
  for (index_t c = 0; c < cur.rows(); ++c)
    normalize_centroid(cur.row(c), cur.row(c), d);

  SphericalStep step{kernels::ops_for(opts.simd), unit.const_view(), opts.k};
  return detail::LloydLoop(unit.const_view(), opts).run(std::move(cur), step);
}

}  // namespace knor
