// Property tests for the pruning paths: on randomized generator datasets,
// MTI-pruned ||Lloyd's (knori) and Elkan's full triangle-inequality
// algorithm must reproduce unpruned serial Lloyd's EXACTLY — identical
// assignments and iteration counts for every seed — and the energy of every
// exact engine must be monotone non-increasing along the iteration
// sequence. Pruning bugs (a bound that under-estimates, a drift applied in
// the wrong direction, a stale c2c entry) show up here as a flipped
// assignment on some seed long before they corrupt a benchmark. On small
// integer inputs, where exact distance ties are common, every pruned engine
// must also decide ties like the full scan (DESIGN.md §3). MTI's clause and
// distance counters are pinned on two fixed inputs, for knori, knord and
// knors, so a path that keeps the clustering but miscounts fails too.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/engines.hpp"
#include "core/knori.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "dist/knord.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor {
namespace {

struct RandomCase {
  data::GeneratorSpec spec;
  Options opts;
};

/// Randomized-but-reproducible case: dataset shape, k, threads and engine
/// seed all drawn from the case seed.
RandomCase make_case(std::uint64_t seed) {
  Prng rng(seed, /*stream=*/0x9daf);
  RandomCase c;
  c.spec.dist = seed % 3 == 0 ? data::Distribution::kUniformRandom
                              : data::Distribution::kNaturalClusters;
  c.spec.n = 300 + rng.next_below(1200);
  c.spec.d = 2 + rng.next_below(14);
  c.spec.true_clusters = 2 + static_cast<int>(rng.next_below(8));
  c.spec.separation = 4.0 + static_cast<double>(rng.next_below(8));
  c.spec.seed = seed * 1000003 + 17;
  c.opts.k = 2 + static_cast<int>(rng.next_below(10));
  c.opts.threads = 1 + static_cast<int>(rng.next_below(6));
  c.opts.max_iters = 40;
  c.opts.seed = seed * 31 + 5;
  c.opts.numa_nodes = 2;
  return c;
}

TEST(PruningProperty, MtiAndElkanMatchSerialOn50Seeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const RandomCase c = make_case(seed);
    const DenseMatrix m = data::generate(c.spec);

    Options serial_opts = c.opts;
    serial_opts.prune = false;
    const Result ref = lloyd_serial(m.const_view(), serial_opts);

    Options mti_opts = c.opts;
    mti_opts.prune = true;
    const Result mti = kmeans(m.const_view(), mti_opts);
    ASSERT_EQ(mti.iters, ref.iters) << "mti seed " << seed;
    ASSERT_EQ(mti.assignments, ref.assignments) << "mti seed " << seed;
    ASSERT_EQ(mti.cluster_sizes, ref.cluster_sizes) << "mti seed " << seed;

    const Result elkan = elkan_ti(m.const_view(), c.opts);
    ASSERT_EQ(elkan.iters, ref.iters) << "elkan seed " << seed;
    ASSERT_EQ(elkan.assignments, ref.assignments) << "elkan seed " << seed;

    // Pruning must never cost extra distances (MTI's worst case per point
    // is the same k as a full scan), and on clustered data it must
    // strictly prune once the clustering stabilizes.
    if (ref.iters > 2) {
      const std::uint64_t full = static_cast<std::uint64_t>(c.spec.n) *
                                 static_cast<std::uint64_t>(c.opts.k) *
                                 ref.iters;
      EXPECT_LE(mti.counters.dist_computations, full) << "seed " << seed;
      EXPECT_LE(elkan.counters.dist_computations, full) << "seed " << seed;
      if (c.spec.dist == data::Distribution::kNaturalClusters) {
        EXPECT_LT(mti.counters.dist_computations, full) << "seed " << seed;
        EXPECT_LT(elkan.counters.dist_computations, full) << "seed " << seed;
      }
    }
  }
}

/// Every pruned engine on one input, each with a knob that changes the
/// path its rows take: knori at T=1 and T=3 (task_size 4, so T=3 steals),
/// knord over 3 ranks, knors at T=3 through a 4-row cache refreshed every
/// iteration (smaller than the active set), and Elkan. `kmat` is scratch
/// space for knors's input file.
std::vector<std::pair<std::string, Result>> run_pruned_engines(
    const DenseMatrix& m, Options opts, const std::string& kmat) {
  opts.prune = true;
  opts.numa_nodes = 2;
  opts.task_size = 4;
  std::vector<std::pair<std::string, Result>> runs;
  opts.threads = 1;
  runs.emplace_back("knori T=1", kmeans(m.const_view(), opts));
  runs.emplace_back("elkan", elkan_ti(m.const_view(), opts));
  dist::DistOptions dopts;
  dopts.ranks = 3;
  dopts.threads_per_rank = 1;
  runs.emplace_back("knord 3 ranks", dist::kmeans(m.const_view(), opts, dopts));
  opts.threads = 3;
  runs.emplace_back("knori T=3", kmeans(m.const_view(), opts));
  data::write_matrix(kmat, m);
  sem::SemOptions sopts;
  // A chunk holds at most 4 rows, so small page-cache and fetch-batch
  // budgets change no fetch and spare each run zeroing the defaults.
  sopts.page_cache_bytes = 16 * sopts.page_size;
  sopts.io_batch_rows = 8;
  sopts.row_cache_bytes = 4 * m.cols() * sizeof(value_t);
  sopts.cache_update_interval = 1;
  runs.emplace_back("knors T=3", sem::kmeans(kmat, opts, sopts));
  return runs;
}

/// Where `res` departs from the full scan's `ref`: an empty string when it
/// has the same iterations and assignments and its energy is within 1e-9.
std::string departure(const Result& res, const Result& ref) {
  if (res.iters != ref.iters)
    return "iters " + std::to_string(res.iters) + " vs " +
           std::to_string(ref.iters);
  if (res.assignments != ref.assignments) return "assignments";
  if (std::abs(res.energy - ref.energy) > 1e-9 * std::max(1.0, ref.energy))
    return "energy " + std::to_string(res.energy) + " vs " +
           std::to_string(ref.energy);
  return "";
}

std::string tie_kmat_path(int worker) {
  return (std::filesystem::temp_directory_path() /
          ("knor_ties_" + std::to_string(::getpid()) + "_" +
           std::to_string(worker) + ".kmat"))
      .string();
}

// Row 0 is at squared distance 2 from both provided centroids. The full
// scan keeps the lower index and reaches 001 in 2 iterations with energy 4.
// A replay that compares with the rounded best_d * best_d
// (fl(sqrt(2))^2 > 2) moves row 0 and ends at 101 in 3 iterations with
// energy 1.
TEST(PruningProperty, ThreeRowTieGoesToLowerIndex) {
  DenseMatrix m(3, 2);
  const value_t rows[3][2] = {{0, 0}, {2, 2}, {1, -1}};
  for (index_t r = 0; r < 3; ++r)
    for (index_t j = 0; j < 2; ++j) m.at(r, j) = rows[r][j];
  Options opts;
  opts.k = 2;
  opts.init = Init::kProvided;
  opts.initial_centroids = DenseMatrix(2, 2);
  opts.initial_centroids.at(0, 0) = 1;
  opts.initial_centroids.at(0, 1) = 1;
  opts.initial_centroids.at(1, 0) = 1;
  opts.initial_centroids.at(1, 1) = -1;

  Options serial_opts = opts;
  serial_opts.prune = false;
  const Result ref = lloyd_serial(m.const_view(), serial_opts);
  ASSERT_EQ(ref.iters, 2u);
  ASSERT_EQ(ref.assignments, (std::vector<cluster_t>{0, 0, 1}));
  ASSERT_DOUBLE_EQ(ref.energy, 4.0);

  const std::string kmat = tie_kmat_path(0);
  for (const auto& [name, res] : run_pruned_engines(m, opts, kmat))
    EXPECT_EQ(departure(res, ref), "") << name;
  std::filesystem::remove(kmat);
}

/// A tie-heavy input: 6-45 rows of 1-3 integer coordinates in [-4, 4] and
/// k = 2-5 provided integer centroids, drawn from `seed`.
std::pair<DenseMatrix, Options> tied_integer_case(std::uint64_t seed) {
  Prng rng(seed, /*stream=*/0x71e5);
  const auto n = static_cast<index_t>(6 + rng.next_below(40));
  const auto d = static_cast<index_t>(1 + rng.next_below(3));
  Options opts;
  opts.k = 2 + static_cast<int>(rng.next_below(4));
  opts.init = Init::kProvided;
  const auto fill = [&](DenseMatrix& m) {
    for (index_t r = 0; r < m.rows(); ++r)
      for (index_t j = 0; j < d; ++j)
        m.at(r, j) =
            static_cast<value_t>(static_cast<int>(rng.next_below(9)) - 4);
  };
  DenseMatrix m(n, d);
  fill(m);
  opts.initial_centroids = DenseMatrix(static_cast<index_t>(opts.k), d);
  fill(opts.initial_centroids);
  return {std::move(m), std::move(opts)};
}

// On 3000 tie-heavy integer inputs every pruned engine must match serial
// Lloyd's. Each run is a few fork/joins on a few dozen rows, so the cases
// are split over a few test threads.
TEST(PruningProperty, PrunedEnginesMatchSerialOnTiedIntegerInputs) {
  constexpr std::uint64_t kCases = 3000;
  constexpr int kWorkers = 3;
  // Per worker: engine name -> "seed S: why" for each departing input.
  std::vector<std::map<std::string, std::vector<std::string>>> found(
      kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w)
    workers.emplace_back([&found, w] {
      auto& mine = found[static_cast<std::size_t>(w)];
      const std::string kmat = tie_kmat_path(w);
      std::uint64_t seed = 1 + static_cast<std::uint64_t>(w);
      try {
        for (; seed <= kCases; seed += kWorkers) {
          const auto [m, opts] = tied_integer_case(seed);
          Options serial_opts = opts;
          serial_opts.prune = false;
          const Result ref = lloyd_serial(m.const_view(), serial_opts);
          for (const auto& [name, res] : run_pruned_engines(m, opts, kmat)) {
            const std::string why = departure(res, ref);
            if (!why.empty())
              mine[name].push_back("seed " + std::to_string(seed) + ": " +
                                   why);
          }
        }
      } catch (const std::exception& e) {
        mine["exception"].push_back("seed " + std::to_string(seed) + ": " +
                                    e.what());
      }
      std::filesystem::remove(kmat);
    });
  for (std::thread& t : workers) t.join();

  std::map<std::string, std::vector<std::string>> departures;
  for (const auto& per_worker : found)
    for (const auto& [name, cases] : per_worker)
      departures[name].insert(departures[name].end(), cases.begin(),
                              cases.end());
  for (const auto& [name, cases] : departures)
    ADD_FAILURE() << name << " departs from serial Lloyd's on "
                  << cases.size() << " of " << kCases
                  << " inputs, e.g. " << cases.front();
}

/// 64-bit FNV-1a over the assignment vector's bytes.
std::uint64_t assignment_hash(const std::vector<cluster_t>& assignments) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const cluster_t a : assignments)
    for (int b = 0; b < 4; ++b) {
      h ^= (a >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  return h;
}

/// What MTI did on one run: its iterations, per-clause skips, the
/// distances its logic consulted, and the clustering it reached.
struct MtiPin {
  std::size_t iters;
  std::uint64_t clause1, clause2, clause3, dist;
  std::uint64_t assign_hash;
};

void expect_pin(const Result& res, const MtiPin& want, const char* what) {
  EXPECT_EQ(res.iters, want.iters) << what;
  EXPECT_EQ(res.counters.clause1_skips, want.clause1) << what;
  EXPECT_EQ(res.counters.clause2_skips, want.clause2) << what;
  EXPECT_EQ(res.counters.clause3_skips, want.clause3) << what;
  EXPECT_EQ(res.counters.dist_computations, want.dist) << what;
  EXPECT_EQ(assignment_hash(res.assignments), want.assign_hash) << what;
}

/// knors's own pin. knors applies each chunk's deltas in its own row order
/// (row-cache hits first), so its sums, and from them its counters, may
/// differ from knori's in the last bits. `hits_t1` / `hits_t3` are the run
/// totals of `sem.row_cache_hits` at T=1 and T=3: the cache has one
/// partition per thread, so they differ between thread counts.
struct KnorsPin {
  MtiPin mti;
  std::uint64_t hits_t1, hits_t3;
};

/// MTI's counters on fixed inputs under the scalar ISA, so the values hold
/// on any host. They were recorded with one dist_sq call per candidate;
/// evaluating a row's candidates in one kernel call must reproduce them.
/// `dist_computations` counts the distances MTI's logic consults, not the
/// ones a kernel evaluates. knori at T=1 and T=3 and knord over 3 ranks
/// must agree, since every counter is a sum of per-row decisions. knors
/// reads the rows from a .kmat through a row cache smaller than the active
/// set, refreshed every power-of-two iteration, so the pinned hits also
/// cover which rows a refresh admits.
void check_mti_pins(const data::GeneratorSpec& spec, Options opts,
                    const MtiPin& want, const KnorsPin& knors_want) {
  const DenseMatrix m = data::generate(spec);
  opts.prune = true;
  opts.simd = kernels::Isa::kScalar;
  opts.numa_nodes = 2;
  opts.threads = 1;
  expect_pin(kmeans(m.const_view(), opts), want, "knori T=1");
  opts.threads = 3;
  expect_pin(kmeans(m.const_view(), opts), want, "knori T=3");
  dist::DistOptions dopts;
  dopts.ranks = 3;
  dopts.threads_per_rank = 1;
  expect_pin(dist::kmeans(m.const_view(), opts, dopts), want, "knord 3 ranks");

  const std::filesystem::path matrix =
      std::filesystem::temp_directory_path() /
      ("knor_pruning_" + std::to_string(::getpid()) + ".kmat");
  data::write_generated(matrix.string(), spec);
  sem::SemOptions sopts;
  sopts.row_cache_bytes = 256 * spec.d * sizeof(value_t);  // 256 rows
  sopts.cache_update_interval = 1;
  for (const int threads : {1, 3}) {
    opts.threads = threads;
    const Result res = sem::kmeans(matrix.string(), opts, sopts);
    const std::string what = "knors T=" + std::to_string(threads);
    expect_pin(res, knors_want.mti, what.c_str());
    EXPECT_EQ(res.metrics.value_or("sem.row_cache_hits", -1),
              static_cast<std::int64_t>(threads == 1 ? knors_want.hits_t1
                                                     : knors_want.hits_t3))
        << what;
  }
  std::filesystem::remove(matrix);
}

// Well-separated clusters: every clause fires, clause 3 included.
TEST(PruningProperty, MtiCountersPinnedOnNaturalClusters) {
  data::GeneratorSpec spec;
  spec.dist = data::Distribution::kNaturalClusters;
  spec.n = 6000;
  spec.d = 8;
  spec.true_clusters = 8;
  spec.seed = 4242;
  Options opts;
  opts.k = 8;
  opts.max_iters = 30;
  opts.seed = 17;
  const MtiPin pin{30, 73800, 551256, 16419, 281925, 17589008640000058004ull};
  check_mti_pins(spec, opts, pin, KnorsPin{pin, 7271, 7245});
}

// Uniform rows, k=64: MTI's worst case, where clauses 2 and 3 barely fire
// and nearly every row evaluates all k candidates.
TEST(PruningProperty, MtiCountersPinnedOnUniformK64) {
  data::GeneratorSpec spec;
  spec.dist = data::Distribution::kUniformRandom;
  spec.n = 4000;
  spec.d = 16;
  spec.seed = 977;
  Options opts;
  opts.k = 64;
  opts.max_iters = 10;
  opts.seed = 5;
  const MtiPin pin{10, 0, 5119, 3827, 2551054, 20740262005782621ull};
  check_mti_pins(spec, opts, pin, KnorsPin{pin, 2304, 2295});
}

/// Energy after 1..steps Lloyd iterations: re-runs with growing max_iters
/// share their iteration prefix because the engines are deterministic, so
/// the sequence is exactly the per-iteration energy trajectory.
template <typename Engine>
std::vector<double> energy_trajectory(const DenseMatrix& m,
                                      const Options& base, int steps,
                                      Engine&& engine) {
  std::vector<double> energies;
  Options opts = base;
  for (int it = 1; it <= steps; ++it) {
    opts.max_iters = it;
    const Result res = engine(m.const_view(), opts);
    energies.push_back(res.energy);
    if (res.converged) break;
  }
  return energies;
}

TEST(PruningProperty, EnergyMonotoneNonIncreasingPerIteration) {
  // The defining property of Lloyd steps, checked per iteration for the
  // pruned engines as well — a loose bound that mis-assigns a point shows
  // up as an energy increase even when the run still "converges".
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomCase c = make_case(seed);
    const DenseMatrix m = data::generate(c.spec);
    Options base = c.opts;
    base.max_iters = 12;

    const auto check = [&](const std::vector<double>& e, const char* what) {
      ASSERT_FALSE(e.empty()) << what;
      for (std::size_t i = 1; i < e.size(); ++i)
        EXPECT_LE(e[i], e[i - 1] * (1 + 1e-12))
            << what << " seed " << seed << " iter " << i;
    };

    Options mti_opts = base;
    mti_opts.prune = true;
    check(energy_trajectory(m, mti_opts, 12,
                            [](ConstMatrixView v, const Options& o) {
                              return kmeans(v, o);
                            }),
          "mti");
    check(energy_trajectory(m, base, 12,
                            [](ConstMatrixView v, const Options& o) {
                              return elkan_ti(v, o);
                            }),
          "elkan");
    check(energy_trajectory(m, base, 12,
                            [](ConstMatrixView v, const Options& o) {
                              return lloyd_serial(v, o);
                            }),
          "serial");
  }
}

}  // namespace
}  // namespace knor
