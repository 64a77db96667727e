// Entry points for every k-means engine in the library.
//
// `kmeans` (declared in knor/knor.hpp, implemented in knori.cpp) is the
// public in-memory routine (the paper's knori / knori-). The functions here
// expose the individual algorithms and baselines the evaluation compares:
//
//   lloyd_serial    — single-thread reference (Table 3 baseline).
//   lloyd_locked    — naive parallel Lloyd's: shared next-iteration
//                     centroids guarded by per-centroid locks; exhibits the
//                     phase-II interference the paper's §4 describes.
//   elkan_ti        — full Elkan triangle-inequality algorithm with the
//                     O(nk) lower-bound matrix (what MTI simplifies).
//   minibatch       — mini-batch SGD k-means (Sophia-ML stand-in, §2).
//   gemm_kmeans     — Lloyd's phase I expressed as ||x||^2 - 2 X C^T +
//                     ||c||^2 over a blocked dgemm (MATLAB/BLAS stand-in,
//                     Table 3).
//
// All exact engines (serial, locked, elkan, gemm, and the parallel engine
// behind kmeans) follow the identical iteration protocol — same argmin tie
// rule (the least (dist_sq, index); the pruned engines keep it by skipping
// a candidate only on a strict bound, DESIGN.md §3, and gemm's score can
// split a near-tie differently, §12), same empty-cluster rule (keep
// previous centroid), same convergence test (membership changes
// <= tolerance * n) — so tests can require they produce the same
// clustering. elkan_ti and gemm_kmeans (with spherical and seeded k-means,
// core/variants.hpp) share one copy of that protocol, the full-scan
// skeleton in core/lloyd_loop.hpp.
#pragma once

#include "core/kmeans_types.hpp"

namespace knor {

Result lloyd_serial(ConstMatrixView data, const Options& opts);
Result lloyd_locked(ConstMatrixView data, const Options& opts);
Result elkan_ti(ConstMatrixView data, const Options& opts);
Result gemm_kmeans(ConstMatrixView data, const Options& opts);

struct MinibatchOptions {
  index_t batch_size = 1024;
  int max_iters = 100;  ///< number of mini-batch steps
};
/// Mini-batch k-means (approximate; converges in energy, not assignments).
Result minibatch(ConstMatrixView data, const Options& opts,
                 const MinibatchOptions& mb);

}  // namespace knor
