// Scalar reference distance kernels.
//
// These are the legacy, header-only forms the engines inlined before the
// SIMD kernel layer (core/kernels/simd.hpp) existed. They now serve two
// roles: the bit-exact reference that `--simd scalar` must reproduce (the
// scalar kernel table routes straight here), and the oracle the SIMD
// property tests compare every vector ISA against. Engines no longer call
// these directly — they go through kernels::ops().
//
// The 4-way unrolled dist_sq gives the compiler independent accumulator
// chains to schedule (and auto-vectorize) — the paper's "sequential access
// patterns ... maximize prefetching and CPU caching" design.
#pragma once

#include "common/types.hpp"

namespace knor {

/// Squared Euclidean distance between two d-vectors.
inline value_t dist_sq(const value_t* a, const value_t* b, index_t d) {
  value_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  index_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const value_t d0 = a[j] - b[j];
    const value_t d1 = a[j + 1] - b[j + 1];
    const value_t d2 = a[j + 2] - b[j + 2];
    const value_t d3 = a[j + 3] - b[j + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; j < d; ++j) {
    const value_t dj = a[j] - b[j];
    s0 += dj * dj;
  }
  return (s0 + s1) + (s2 + s3);
}

/// Inner product (the spherical k-means kernel). The 2-way unrolled form
/// is the historical reference the scalar kernel table must reproduce.
inline value_t dot(const value_t* a, const value_t* b, index_t d) {
  value_t s0 = 0, s1 = 0;
  index_t j = 0;
  for (; j + 2 <= d; j += 2) {
    s0 += a[j] * b[j];
    s1 += a[j + 1] * b[j + 1];
  }
  if (j < d) s0 += a[j] * b[j];
  return s0 + s1;
}

/// Index of the nearest centroid (ties -> lowest index). `centroids` is
/// k x d row-major. Writes the SQUARED distance to *out_sq when non-null:
/// every caller works in squared space, so the one sqrt that true-distance
/// bookkeeping (MTI upper bounds) needs lives at that call site, not here.
inline cluster_t nearest_centroid(const value_t* point,
                                  const value_t* centroids, int k, index_t d,
                                  value_t* out_sq) {
  cluster_t best = 0;
  value_t best_d = dist_sq(point, centroids, d);
  for (int c = 1; c < k; ++c) {
    const value_t dc =
        dist_sq(point, centroids + static_cast<std::size_t>(c) * d, d);
    if (dc < best_d) {
      best_d = dc;
      best = static_cast<cluster_t>(c);
    }
  }
  if (out_sq != nullptr) *out_sq = best_d;
  return best;
}

}  // namespace knor
