// k-means variants from the paper's future-work roadmap (§9): the authors
// list spherical k-means and semi-supervised k-means++ as the first targets
// to build on top of knor's NUMA-optimized engine.
#pragma once

#include "core/kmeans_types.hpp"

namespace knor {

/// Spherical k-means: rows and centroids live on the unit hypersphere and
/// similarity is cosine. Standard for text/TF-IDF and embedding vectors.
/// Input rows are L2-normalized internally (zero rows are rejected);
/// centroids are re-normalized means. Result::energy is the total cosine
/// *dissimilarity*  sum(1 - cos(v, c_assign)).
/// Runs on the full-scan skeleton (core/lloyd_loop.hpp): per-chunk
/// accumulators with a fixed-tree fold, so results are bitwise independent
/// of the thread count. Supports kForgy / kKmeansPP / kRandom / kProvided
/// init.
Result spherical_kmeans(ConstMatrixView data, const Options& opts);

/// Semi-supervised (seeded) k-means — the Yoder & Priebe "ss-kmeans++"
/// setting the paper cites: a subset of points carries known labels in
/// [0, k). Labeled points never change cluster but always contribute to
/// their centroid; unlabeled points (kInvalidCluster in `labels`) follow
/// Lloyd's. Initial centroids: the labeled mean for clusters with seeds,
/// k-means++ over the unlabeled remainder for the rest.
/// `labels.size()` must equal data.rows().
Result seeded_kmeans(ConstMatrixView data, const Options& opts,
                     const std::vector<cluster_t>& labels);

}  // namespace knor
