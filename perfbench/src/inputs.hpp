// Workload inputs, generated by the benchmark's own code from the workload
// seed (never through knor's data/generator, so the program under test
// cannot change what it is fed). Every value is a pure function of
// (seed, shape): the same seed gives the same rows on any thread count.
#pragma once

#include <cstdint>

#include "knor/knor.hpp"

namespace pb {

struct Inputs {
  knor::DenseMatrix rows;  ///< n x d training rows
  knor::DenseMatrix init;  ///< k x d starting centroids (Init::kProvided)
};

/// Gaussian mixture: k components with unit variance around means that are
/// FIXED across seeds, and starting centroids at fixed points of the same
/// box: the seed moves the rows, not the geometry or the start, so with
/// n large every seed follows nearly the same trajectory and does nearly
/// the same work (distance counts agree to ~1% across seeds).
Inputs natural_inputs(std::uint64_t seed, knor::index_t n, knor::index_t d,
                      int k);

/// Uniform rows in [0, 1)^d, starting centroids k seed-chosen distinct
/// rows (Forgy). Uniform data gives MTI nothing to prune, so the work per
/// iteration is the same for every seed anyway.
Inputs uniform_inputs(std::uint64_t seed, knor::index_t n, knor::index_t d,
                      int k);

/// `n` query rows from the same distribution as the training rows, on a
/// separate seed stream.
knor::DenseMatrix query_rows(bool natural, std::uint64_t seed, knor::index_t n,
                             knor::index_t d, int k);

}  // namespace pb
