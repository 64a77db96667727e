// Unit tests for the core k-means machinery: distance kernels,
// initialization, local centroid accumulators, MTI state, and degenerate
// input handling of every engine.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/distance.hpp"
#include "core/engine_impl.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/knori.hpp"
#include "core/local_centroids.hpp"
#include "core/mti.hpp"
#include "data/generator.hpp"

namespace knor {
namespace {

TEST(Distance, SquaredEuclideanMatchesDefinition) {
  const value_t a[5] = {1, 2, 3, 4, 5};
  const value_t b[5] = {0, 1, 1, 1, 1};
  // diffs: 1,1,2,3,4 -> squares 1+1+4+9+16 = 31
  EXPECT_DOUBLE_EQ(dist_sq(a, b, 5), 31.0);
}

TEST(Distance, HandlesShortAndUnrolledTails) {
  // Exercise d < 4 (tail only), d == 4 (unrolled only) and mixed d.
  const value_t a[9] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  const value_t b[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  for (index_t d : {1, 2, 3, 4, 5, 8, 9})
    EXPECT_DOUBLE_EQ(dist_sq(a, b, d), static_cast<double>(d)) << d;
  EXPECT_DOUBLE_EQ(dist_sq(a, b, 0), 0.0);
}

TEST(Distance, NearestCentroidLowestIndexTie) {
  // Two identical centroids: the tie must resolve to the lower index.
  const value_t point[2] = {0, 0};
  const value_t centroids[6] = {5, 5, 1, 1, 1, 1};  // c1 == c2
  value_t d = 0;
  EXPECT_EQ(nearest_centroid(point, centroids, 3, 2, &d), 1u);
  EXPECT_DOUBLE_EQ(d, 2.0);  // out-param is the SQUARED distance
}

TEST(SampleRows, DistinctAndInRange) {
  const auto rows = sample_rows(100, 20, 7);
  std::set<index_t> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), 20u);
  for (index_t r : rows) EXPECT_LT(r, 100u);
}

TEST(SampleRows, DeterministicAndThrowsWhenKExceedsN) {
  EXPECT_EQ(sample_rows(50, 10, 3), sample_rows(50, 10, 3));
  EXPECT_THROW(sample_rows(5, 6, 1), std::invalid_argument);
}

class InitTest : public ::testing::TestWithParam<Init> {};

TEST_P(InitTest, ProducesKDistinctFiniteCentroids) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 4;
  spec.true_clusters = 5;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 5;
  opts.init = GetParam();
  opts.seed = 11;
  const DenseMatrix c = init_centroids(m.const_view(), opts);
  ASSERT_EQ(c.rows(), 5u);
  ASSERT_EQ(c.cols(), 4u);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_TRUE(std::isfinite(c.data()[i]));
  // No two centroids identical (true for continuous data).
  for (index_t a = 0; a < 5; ++a)
    for (index_t b = a + 1; b < 5; ++b)
      EXPECT_GT(dist_sq(c.row(a), c.row(b), 4), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, InitTest,
                         ::testing::Values(Init::kForgy, Init::kRandom,
                                           Init::kKmeansPP),
                         [](const auto& info) {
                           switch (info.param) {
                             case Init::kForgy: return "Forgy";
                             case Init::kRandom: return "Random";
                             case Init::kKmeansPP: return "KmeansPP";
                             default: return "Other";
                           }
                         });

TEST(Init, KmeansPPSpreadsCentres) {
  // On well-separated data, k-means++ should pick one centre per component
  // far more often than forgy; verify spread: min pairwise distance of
  // kmeans++ centres exceeds that of a uniformly-random pick on average.
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 4;
  spec.true_clusters = 6;
  spec.separation = 12.0;
  const DenseMatrix m = data::generate(spec);
  auto min_pairwise = [&](const DenseMatrix& c) {
    value_t best = std::numeric_limits<value_t>::infinity();
    for (index_t a = 0; a < c.rows(); ++a)
      for (index_t b = a + 1; b < c.rows(); ++b)
        best = std::min(best, dist_sq(c.row(a), c.row(b), c.cols()));
    return best;
  };
  double pp = 0, forgy = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Options opts;
    opts.k = 6;
    opts.seed = seed;
    opts.init = Init::kKmeansPP;
    pp += min_pairwise(init_centroids(m.const_view(), opts));
    opts.init = Init::kForgy;
    forgy += min_pairwise(init_centroids(m.const_view(), opts));
  }
  EXPECT_GT(pp, forgy);
}

TEST(Init, ProvidedCentroidsValidated) {
  data::GeneratorSpec spec;
  spec.n = 10;
  spec.d = 3;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 2;
  opts.init = Init::kProvided;
  opts.initial_centroids = DenseMatrix(2, 4);  // wrong d
  EXPECT_THROW(init_centroids(m.const_view(), opts), std::invalid_argument);
  opts.initial_centroids = DenseMatrix(2, 3);
  opts.initial_centroids.at(1, 2) = 5.0;
  const DenseMatrix c = init_centroids(m.const_view(), opts);
  EXPECT_EQ(c.at(1, 2), 5.0);
}

TEST(Init, InvalidConfigurationsThrow) {
  data::GeneratorSpec spec;
  spec.n = 5;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 0;
  EXPECT_THROW(init_centroids(m.const_view(), opts), std::invalid_argument);
  opts.k = 6;  // > n
  EXPECT_THROW(init_centroids(m.const_view(), opts), std::invalid_argument);
}

TEST(LocalCentroids, AddMergeFinalize) {
  LocalCentroids a(2, 3), b(2, 3);
  const value_t v1[3] = {1, 2, 3};
  const value_t v2[3] = {3, 4, 5};
  const value_t v3[3] = {10, 10, 10};
  a.add(0, v1);
  b.add(0, v2);
  b.add(1, v3);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(1), 1u);
  DenseMatrix out(2, 3), prev(2, 3);
  const auto sizes = a.finalize_into(out, prev);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 10.0);
}

TEST(LocalCentroids, EmptyClusterKeepsPrevious) {
  LocalCentroids acc(2, 2);
  const value_t v[2] = {4, 6};
  acc.add(0, v);
  DenseMatrix prev(2, 2);
  prev.at(1, 0) = -7.0;
  prev.at(1, 1) = 8.0;
  DenseMatrix out(2, 2);
  const auto sizes = acc.finalize_into(out, prev);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_DOUBLE_EQ(out.at(1, 0), -7.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 8.0);
}

TEST(LocalCentroids, ClearResets) {
  LocalCentroids acc(1, 2);
  const value_t v[2] = {1, 1};
  acc.add(0, v);
  acc.clear();
  EXPECT_EQ(acc.count(0), 0u);
  EXPECT_DOUBLE_EQ(acc.sum(0)[0], 0.0);
}

TEST(MtiState, BoundsStartInfinite) {
  MtiState mti(10, 3);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_TRUE(std::isinf(mti.ub(i)));
}

TEST(MtiState, PrepareComputesC2CDriftAndSeparation) {
  // Centroids at (0,0), (4,0), (0,3): distances 4, 3, 5.
  DenseMatrix cur(3, 2);
  cur.at(1, 0) = 4;
  cur.at(2, 1) = 3;
  MtiState mti(1, 3);
  mti.prepare(DenseMatrix{}, cur, kernels::ops());
  EXPECT_DOUBLE_EQ(mti.c2c(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(mti.c2c(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(mti.c2c(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(mti.s_half(0), 1.5);  // min(4,3)/2
  EXPECT_DOUBLE_EQ(mti.s_half(1), 2.0);  // min(4,5)/2
  EXPECT_DOUBLE_EQ(mti.drift(0), 0.0);   // no previous centroids

  DenseMatrix prev = cur;
  cur.at(0, 0) = 1;  // centroid 0 moved by 1
  mti.prepare(prev, cur, kernels::ops());
  EXPECT_DOUBLE_EQ(mti.drift(0), 1.0);
  EXPECT_DOUBLE_EQ(mti.drift(1), 0.0);
}

TEST(MtiState, Clause1UsesHalfSeparation) {
  DenseMatrix cur(2, 1);
  cur.at(0, 0) = 0;
  cur.at(1, 0) = 10;
  MtiState mti(1, 2);
  mti.prepare(DenseMatrix{}, cur, kernels::ops());
  EXPECT_TRUE(mti.clause1(0, 4.9));   // 4.9 < 5.0
  EXPECT_FALSE(mti.clause1(0, 5.1));  // cannot prove
  // A bound at exactly half the separation allows a tie, so it must not
  // skip the row.
  EXPECT_FALSE(mti.clause1(0, mti.s_half(0)));
}

/// One row through MtiState::nearest_pruned against centroids `cur`
/// (2-d rows), returning the winner and the counters it bumped.
struct PrunedRow {
  PrunedNearest won;
  Counters cnt;
};

PrunedRow prune_row(const DenseMatrix& cur, value_t x, value_t y,
                    cluster_t a, value_t loosened) {
  const kernels::Ops& K = kernels::ops();
  const int k = static_cast<int>(cur.rows());
  MtiState mti(1, k);
  mti.prepare(DenseMatrix{}, cur, K);
  kernels::CentroidPack pack;
  pack.pack(cur);
  std::vector<cluster_t> cand(static_cast<std::size_t>(k));
  std::vector<value_t> cand_sq(static_cast<std::size_t>(k));
  const value_t v[2] = {x, y};
  PrunedRow out;
  out.won = mti.nearest_pruned(v, a, loosened, pack, K, cand.data(),
                               cand_sq.data(), out.cnt);
  return out;
}

DenseMatrix centroids_2d(std::initializer_list<std::pair<int, int>> pts) {
  DenseMatrix m(static_cast<index_t>(pts.size()), 2);
  index_t r = 0;
  for (const auto& [x, y] : pts) {
    m.at(r, 0) = x;
    m.at(r, 1) = y;
    ++r;
  }
  return m;
}

// The pruned-row tests use 3-4-5 triangles, so every distance, sqrt and
// half-separation is exact on every ISA.
TEST(MtiState, PrunedTieAtAssignedDistanceGoesToLowerIndex) {
  // (3,4) is 5 from both (0,0) and (6,0); no clause is at its boundary.
  const PrunedRow row = prune_row(centroids_2d({{0, 0}, {6, 0}}), 3, 4,
                                  /*a=*/1, /*loosened=*/5);
  EXPECT_EQ(row.won.best, 0u);
  EXPECT_DOUBLE_EQ(row.won.best_d, 5.0);
  EXPECT_EQ(row.cnt.dist_computations, 2u);
}

TEST(MtiState, PrunedClause2BoundAtHalfSeparationEvaluates) {
  // c2c = 10, so a loosened bound of 5 sits exactly on clause 2's test:
  // the tied lower index must be evaluated, not skipped.
  const PrunedRow row = prune_row(centroids_2d({{0, 0}, {6, 8}}), 3, 4,
                                  /*a=*/1, /*loosened=*/5);
  EXPECT_EQ(row.won.best, 0u);
  EXPECT_DOUBLE_EQ(row.won.best_d, 5.0);
  EXPECT_EQ(row.cnt.clause2_skips, 0u);
  EXPECT_EQ(row.cnt.dist_computations, 2u);
}

TEST(MtiState, PrunedClause3BoundAtHalfSeparationEvaluates) {
  // A looser bound passes clause 2; the tightened bound 5 then sits
  // exactly on clause 3's test.
  const PrunedRow row = prune_row(centroids_2d({{0, 0}, {6, 8}}), 3, 4,
                                  /*a=*/1, /*loosened=*/6);
  EXPECT_EQ(row.won.best, 0u);
  EXPECT_DOUBLE_EQ(row.won.best_d, 5.0);
  EXPECT_EQ(row.cnt.clause2_skips, 0u);
  EXPECT_EQ(row.cnt.clause3_skips, 0u);
  EXPECT_EQ(row.cnt.dist_computations, 2u);
}

TEST(MtiState, PrunedDuplicateCentroidsResolveToLowerIndex) {
  // Centroids 1 and 2 coincide, so s_half is 0 for both and clause 1
  // cannot fire even for a row on them.
  const DenseMatrix cur = centroids_2d({{0, 0}, {3, 4}, {3, 4}});
  MtiState mti(1, 3);
  mti.prepare(DenseMatrix{}, cur, kernels::ops());
  EXPECT_FALSE(mti.clause1(2, 0));
  const PrunedRow row = prune_row(cur, 6, 8, /*a=*/2, /*loosened=*/5);
  EXPECT_EQ(row.won.best, 1u);
  EXPECT_DOUBLE_EQ(row.won.best_d, 5.0);
  EXPECT_EQ(row.cnt.dist_computations, 3u);
}

TEST(MtiState, SingleClusterSeparationIsZero) {
  DenseMatrix cur(1, 2);
  MtiState mti(4, 1);
  mti.prepare(DenseMatrix{}, cur, kernels::ops());
  EXPECT_DOUBLE_EQ(mti.s_half(0), 0.0);
}

// --- Degenerate input handling across engines -----------------------------

struct EngineCase {
  const char* name;
  Result (*run)(ConstMatrixView, const Options&);
};

Result run_knori(ConstMatrixView m, const Options& o) { return kmeans(m, o); }

class DegenerateTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(DegenerateTest, KEqualsOneAssignsEverythingToOneCluster) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 3;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 1;
  opts.threads = 2;
  opts.max_iters = 10;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.cluster_sizes[0], 500u);
  for (cluster_t a : res.assignments) EXPECT_EQ(a, 0u);
}

TEST_P(DegenerateTest, KEqualsNIsPerfect) {
  data::GeneratorSpec spec;
  spec.n = 16;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 16;
  opts.threads = 2;
  opts.max_iters = 20;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_NEAR(res.energy, 0.0, 1e-18);
}

TEST_P(DegenerateTest, IdenticalPointsDoNotCrash) {
  DenseMatrix m(100, 3);  // all zeros
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 5;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_NEAR(res.energy, 0.0, 1e-18);
  index_t total = 0;
  for (index_t s : res.cluster_sizes) total += s;
  EXPECT_EQ(total, 100u);
}

TEST_P(DegenerateTest, OneDimensionalData) {
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 1;
  spec.dist = data::Distribution::kUnivariateRandom;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 3;
  opts.threads = 2;
  opts.max_iters = 50;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_GT(res.energy, 0.0);
  EXPECT_EQ(res.assignments.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DegenerateTest,
    ::testing::Values(EngineCase{"serial", &lloyd_serial},
                      EngineCase{"knori", &run_knori},
                      EngineCase{"locked", &lloyd_locked},
                      EngineCase{"elkan", &elkan_ti},
                      EngineCase{"gemm", &gemm_kmeans}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Knori, EmptyDatasetThrows) {
  DenseMatrix empty;
  Options opts;
  EXPECT_THROW(kmeans(empty.const_view(), opts), std::invalid_argument);
}

TEST(Knori, MoreThreadsThanRows) {
  data::GeneratorSpec spec;
  spec.n = 7;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 2;
  opts.threads = 16;
  opts.max_iters = 10;
  const Result res = kmeans(m.const_view(), opts);
  EXPECT_EQ(res.assignments.size(), 7u);
  EXPECT_TRUE(res.converged);
}

TEST(Knori, ToleranceTerminatesEarly) {
  data::GeneratorSpec spec;
  spec.n = 5000;
  spec.d = 8;
  spec.dist = data::Distribution::kUniformRandom;
  const DenseMatrix m = data::generate(spec);
  Options strict, loose;
  strict.k = loose.k = 8;
  strict.threads = loose.threads = 2;
  strict.max_iters = loose.max_iters = 200;
  loose.tolerance = 0.05;  // stop at <= 5% membership churn
  const Result exact = kmeans(m.const_view(), strict);
  const Result early = kmeans(m.const_view(), loose);
  EXPECT_LT(early.iters, exact.iters);
  EXPECT_TRUE(early.converged);
}

TEST(Knori, CountersAreConsistent) {
  data::GeneratorSpec spec;
  spec.n = 4000;
  spec.d = 6;
  spec.true_clusters = 6;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 6;
  opts.threads = 3;
  opts.max_iters = 30;
  const Result res = kmeans(m.const_view(), opts);
  // Every point touched every iteration: local+remote accesses == n*iters.
  EXPECT_EQ(res.counters.local_accesses + res.counters.remote_accesses,
            static_cast<std::uint64_t>(4000) * res.iters);
  // With pruning, fewer distances than the naive n*k*iters.
  EXPECT_LT(res.counters.dist_computations,
            static_cast<std::uint64_t>(4000) * 6 * res.iters);
  EXPECT_GT(res.counters.clause1_skips, 0u);
  // Scheduler stats cover all tasks.
  EXPECT_GT(res.counters.tasks_own, 0u);
}

/// A row source whose rows fail to load on one chunk of one iteration, as
/// a knors row whose pread fails does.
struct FailingSource : detail::MemorySource<detail::FlatData> {
  using Base = detail::MemorySource<detail::FlatData>;
  int iteration = -1;

  void begin_iteration(int it) { iteration = it; }
  template <typename Skip, typename Visit>
  void for_chunk(int tid, const sched::Task& task, Counters& cnt, Skip&& skip,
                 Visit&& visit) const {
    if (iteration == 2 && task.chunk == 5)
      throw std::runtime_error("row source: read failed");
    Base::for_chunk(tid, task, cnt, skip, visit);
  }
};

TEST(ParallelLloyd, RowSourceErrorReachesTheCaller) {
  // The failing worker's siblings wait for it in the iteration's barriers;
  // the loop must still return and report the error, not hang.
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 4;
  spec.true_clusters = 5;
  const DenseMatrix m = data::generate(spec);
  for (const bool prune : {true, false}) {
    Options opts;
    opts.k = 5;
    opts.max_iters = 10;
    opts.task_size = 256;  // 12 chunks
    opts.prune = prune;
    const int T = 3;
    const auto topo = numa::Topology::simulated(2);
    numa::Partitioner parts(m.rows(), T, topo);
    sched::Scheduler sched(T, topo, /*bind=*/false, opts.sched);
    const detail::FlatData flat{m.const_view()};
    FailingSource src{{flat, parts, m.cols()}};
    DenseMatrix initial(static_cast<index_t>(opts.k), m.cols());
    for (index_t c = 0; c < initial.rows(); ++c)
      for (index_t j = 0; j < m.cols(); ++j) initial.at(c, j) = m.at(c, j);
    EXPECT_THROW(detail::run_parallel_lloyd(src, m.rows(), m.cols(), opts,
                                            std::move(initial), sched, parts),
                 std::runtime_error)
        << "prune=" << prune;
    EXPECT_EQ(src.iteration, 2) << "prune=" << prune;
  }
}

TEST(Minibatch, ReducesEnergyTowardExact) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 6;
  spec.true_clusters = 8;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 8;
  opts.seed = 21;
  MinibatchOptions mb;
  mb.batch_size = 512;
  mb.max_iters = 150;
  const Result approx = minibatch(m.const_view(), opts, mb);
  const Result exact = lloyd_serial(m.const_view(), opts);
  // Approximation within 2x of the exact solution's energy on easy data.
  EXPECT_LT(approx.energy, 2.0 * exact.energy);
  index_t total = 0;
  for (index_t s : approx.cluster_sizes) total += s;
  EXPECT_EQ(total, 8000u);
}

TEST(Result, SummaryMentionsKeyFields) {
  data::GeneratorSpec spec;
  spec.n = 100;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 2;
  opts.threads = 1;
  const Result res = kmeans(m.const_view(), opts);
  const std::string s = res.summary();
  EXPECT_NE(s.find("iters="), std::string::npos);
  EXPECT_NE(s.find("energy="), std::string::npos);
}

}  // namespace
}  // namespace knor
