#include "inputs.hpp"

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "support.hpp"

namespace pb {

using knor::DenseMatrix;
using knor::index_t;

namespace {

constexpr index_t kBlockRows = 4096;
/// Seed of the mixture geometry; deliberately independent of the workload
/// seed so every seed clusters the same mixture.
constexpr std::uint64_t kGeometrySeed = 0x6b6e6f72;
/// Component means (and the starting centroids) are uniform in
/// [-kMeanSpread, kMeanSpread)^d. At 4.0 with unit-variance components MTI
/// prunes ~78% of distances while the run stays short of convergence:
/// all 100 recorded seeds (0-99) run the full 24-iteration cap.
constexpr double kMeanSpread = 4.0;

enum Stream : std::uint64_t { kTrain = 1, kQuery = 2, kInit = 3 };

DenseMatrix mixture_means(index_t d, int k) {
  DenseMatrix m(static_cast<index_t>(k), d);
  Rng r(derive_seed(kGeometrySeed, d * 131 + static_cast<index_t>(k)));
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = (2.0 * r.uniform() - 1.0) * kMeanSpread;
  return m;
}

/// Fill every row of `m` with fn(rng, row_index, row_ptr), one Rng per
/// kBlockRows block, blocks spread over the hardware threads.
template <typename Fn>
void fill_rows(DenseMatrix& m, std::uint64_t seed, Stream stream, Fn fn) {
  const index_t blocks = (m.rows() + kBlockRows - 1) / kBlockRows;
  const unsigned T = busy_threads();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < T; ++t)
    pool.emplace_back([&, t] {
      for (index_t b = t; b < blocks; b += T) {
        Rng r(derive_seed(seed, stream * 0x10000000ULL + b));
        const index_t end = std::min(m.rows(), (b + 1) * kBlockRows);
        for (index_t i = b * kBlockRows; i < end; ++i) fn(r, i, m.row(i));
      }
    });
  for (auto& th : pool) th.join();
}

DenseMatrix mixture_rows(std::uint64_t seed, Stream stream, index_t n,
                         index_t d, int k) {
  const DenseMatrix means = mixture_means(d, k);
  DenseMatrix m(n, d);
  fill_rows(m, seed, stream, [&](Rng& r, index_t, double* row) {
    const double* mu = means.row(r.below(static_cast<std::uint64_t>(k)));
    for (index_t j = 0; j < d; ++j) row[j] = mu[j] + r.normal();
  });
  return m;
}

DenseMatrix uniform_rows(std::uint64_t seed, Stream stream, index_t n,
                         index_t d) {
  DenseMatrix m(n, d);
  fill_rows(m, seed, stream, [&](Rng& r, index_t, double* row) {
    for (index_t j = 0; j < d; ++j) row[j] = r.uniform();
  });
  return m;
}

/// k seed-chosen distinct rows of `rows`.
DenseMatrix forgy(std::uint64_t seed, const DenseMatrix& rows, int k) {
  DenseMatrix init(static_cast<index_t>(k), rows.cols());
  Rng r(derive_seed(seed, kInit));
  std::set<index_t> chosen;
  for (int c = 0; c < k;) {
    const index_t i = r.below(rows.rows());
    if (!chosen.insert(i).second) continue;
    std::copy(rows.row(i), rows.row(i) + rows.cols(),
              init.row(static_cast<index_t>(c++)));
  }
  return init;
}

}  // namespace

Inputs natural_inputs(std::uint64_t seed, index_t n, index_t d, int k) {
  Inputs in;
  in.rows = mixture_rows(seed, kTrain, n, d, k);
  in.init = DenseMatrix(static_cast<index_t>(k), d);
  Rng r(derive_seed(kGeometrySeed, kInit));
  for (std::size_t i = 0; i < in.init.size(); ++i)
    in.init.data()[i] = (2.0 * r.uniform() - 1.0) * kMeanSpread;
  return in;
}

Inputs uniform_inputs(std::uint64_t seed, index_t n, index_t d, int k) {
  Inputs in;
  in.rows = uniform_rows(seed, kTrain, n, d);
  in.init = forgy(seed, in.rows, k);
  return in;
}

DenseMatrix query_rows(bool natural, std::uint64_t seed, index_t n, index_t d,
                       int k) {
  return natural ? mixture_rows(seed, kQuery, n, d, k)
                 : uniform_rows(seed, kQuery, n, d);
}

}  // namespace pb
