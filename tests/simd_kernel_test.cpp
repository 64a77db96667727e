// Property tests for the SIMD distance-kernel layer (core/kernels):
//  * every ISA variant matches a long-double reference within a tight
//    error bound across random d, including every remainder-lane case;
//  * each ISA is bitwise self-deterministic call to call;
//  * the scalar table reproduces the legacy core/distance.hpp kernels
//    bit-for-bit;
//  * the blocked nearest-centroid kernel and the candidate-list kernel are
//    bitwise-identical to independent dist_sq calls of the same ISA (the
//    contract that keeps MTI-pruned and full-scan paths in exact
//    agreement);
//  * CentroidPack rows are 64-byte aligned with zero padding for every
//    d in 1..33 (the odd-d regression sweep);
//  * Options::simd steers the engines and every ISA yields identical
//    clusterings on integer-valued data.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "core/distance.hpp"
#include "core/kernels/simd.hpp"
#include "core/knori.hpp"
#include "data/generator.hpp"

namespace knor {
namespace {

using kernels::CentroidPack;
using kernels::Isa;
using kernels::Ops;

std::vector<value_t> random_vec(Prng& rng, index_t d) {
  std::vector<value_t> v(static_cast<std::size_t>(d));
  for (auto& x : v) x = 20.0 * rng.next_double() - 10.0;
  return v;
}

long double ref_dist_sq(const value_t* a, const value_t* b, index_t d) {
  long double s = 0;
  for (index_t j = 0; j < d; ++j) {
    const long double diff =
        static_cast<long double>(a[j]) - static_cast<long double>(b[j]);
    s += diff * diff;
  }
  return s;
}

long double ref_dot(const value_t* a, const value_t* b, index_t d) {
  long double s = 0;
  for (index_t j = 0; j < d; ++j)
    s += static_cast<long double>(a[j]) * static_cast<long double>(b[j]);
  return s;
}

/// All dims that exercise every remainder-lane count of every ISA (W up
/// to 8, two-accumulator main loop up to 16), plus a few larger ones.
std::vector<index_t> sweep_dims() {
  std::vector<index_t> dims;
  for (index_t d = 1; d <= 33; ++d) dims.push_back(d);
  dims.insert(dims.end(), {64, 127, 128, 257});
  return dims;
}

TEST(SimdDispatch, ParseAndToStringRoundTrip) {
  for (const Isa isa :
       {Isa::kAuto, Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
    Isa parsed = Isa::kAuto;
    EXPECT_TRUE(kernels::parse_isa(kernels::to_string(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed = Isa::kAuto;
  EXPECT_FALSE(kernels::parse_isa("quantum", &parsed));
  EXPECT_FALSE(kernels::parse_isa("", &parsed));
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndResolves) {
  EXPECT_TRUE(kernels::available(Isa::kScalar));
  const auto isas = kernels::available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  for (const Isa isa : isas) {
    const Ops& ops = kernels::ops_for(isa);
    EXPECT_EQ(ops.isa, isa);
    ASSERT_NE(ops.dist_sq, nullptr);
    ASSERT_NE(ops.dot, nullptr);
    ASSERT_NE(ops.nearest, nullptr);
    ASSERT_NE(ops.nearest_blocked, nullptr);
    ASSERT_NE(ops.dist_sq_list, nullptr);
  }
  // Unavailable requests clamp downward instead of failing, and kAuto
  // always lands on something dispatchable (KNOR_SIMD may steer it, so no
  // strict equality with detect_best() here).
  EXPECT_NE(kernels::ops_for(Isa::kAvx512).dist_sq, nullptr);
  EXPECT_TRUE(kernels::available(kernels::resolve(Isa::kAuto)));
  EXPECT_TRUE(kernels::available(kernels::detect_best()));
}

TEST(SimdKernels, DistSqAndDotMatchLongDoubleReference) {
  Prng rng(0x51d0, 1);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : sweep_dims()) {
      const auto a = random_vec(rng, d);
      const auto b = random_vec(rng, d);
      const long double ref = ref_dist_sq(a.data(), b.data(), d);
      const value_t got = ops.dist_sq(a.data(), b.data(), d);
      // Positive-term summation: relative error <= #terms * eps with slack
      // (FMA variants are tighter).
      const double bound =
          4.0 * static_cast<double>(d + 1) * DBL_EPSILON *
          std::max(static_cast<double>(ref), 1.0);
      EXPECT_NEAR(got, static_cast<double>(ref), bound)
          << kernels::to_string(isa) << " dist_sq d=" << d;

      const long double dref = ref_dot(a.data(), b.data(), d);
      const value_t dgot = ops.dot(a.data(), b.data(), d);
      const double dbound =
          4.0 * static_cast<double>(d + 1) * DBL_EPSILON *
          std::max(static_cast<double>(std::fabs(dref)), 100.0 * d);
      EXPECT_NEAR(dgot, static_cast<double>(dref), dbound)
          << kernels::to_string(isa) << " dot d=" << d;
    }
  }
}

TEST(SimdKernels, BitwiseSelfDeterminismAcrossCalls) {
  Prng rng(0xb175, 2);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : {index_t(7), index_t(16), index_t(31)}) {
      const int k = 11;
      const auto point = random_vec(rng, d);
      const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
      const value_t first = ops.dist_sq(point.data(), cents.data(), d);
      CentroidPack pack;
      pack.pack(cents.data(), k, d);
      value_t first_sq = 0;
      const cluster_t first_best =
          ops.nearest_blocked(point.data(), pack, &first_sq);
      for (int call = 0; call < 5; ++call) {
        const value_t again = ops.dist_sq(point.data(), cents.data(), d);
        EXPECT_EQ(std::memcmp(&first, &again, sizeof(value_t)), 0)
            << kernels::to_string(isa);
        // Repacking must not perturb the result either.
        CentroidPack repack;
        repack.pack(cents.data(), k, d);
        value_t sq = 0;
        EXPECT_EQ(ops.nearest_blocked(point.data(), repack, &sq), first_best);
        EXPECT_EQ(std::memcmp(&sq, &first_sq, sizeof(value_t)), 0)
            << kernels::to_string(isa);
      }
    }
  }
}

TEST(SimdKernels, ScalarTableMatchesLegacyBitForBit) {
  const Ops& ops = kernels::ops_for(Isa::kScalar);
  ASSERT_EQ(ops.isa, Isa::kScalar);
  Prng rng(0x5ca1a9, 3);
  for (const index_t d : sweep_dims()) {
    const int k = 7;
    const auto point = random_vec(rng, d);
    const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
    const value_t legacy = dist_sq(point.data(), cents.data(), d);
    const value_t viaops = ops.dist_sq(point.data(), cents.data(), d);
    EXPECT_EQ(std::memcmp(&legacy, &viaops, sizeof(value_t)), 0) << d;

    const value_t legacy_dot = dot(point.data(), cents.data(), d);
    const value_t ops_dot = ops.dot(point.data(), cents.data(), d);
    EXPECT_EQ(std::memcmp(&legacy_dot, &ops_dot, sizeof(value_t)), 0) << d;

    value_t legacy_sq = 0, ops_sq = 0, blocked_sq = 0;
    const cluster_t legacy_best =
        nearest_centroid(point.data(), cents.data(), k, d, &legacy_sq);
    EXPECT_EQ(ops.nearest(point.data(), cents.data(), k, d, &ops_sq),
              legacy_best)
        << d;
    EXPECT_EQ(std::memcmp(&legacy_sq, &ops_sq, sizeof(value_t)), 0) << d;
    CentroidPack pack;
    pack.pack(cents.data(), k, d);
    EXPECT_EQ(ops.nearest_blocked(point.data(), pack, &blocked_sq),
              legacy_best)
        << d;
    EXPECT_EQ(std::memcmp(&legacy_sq, &blocked_sq, sizeof(value_t)), 0) << d;
  }
}

// The contract that keeps MTI-pruned (candidate-list) and full-scan
// (blocked) paths in exact agreement: for every ISA, the blocked kernel's
// and the list kernel's distances are bitwise IDENTICAL to that ISA's
// dist_sq on the unpadded rows.
TEST(SimdKernels, BlockedMatchesPerCentroidDistSqBitwise) {
  Prng rng(0xb10c, 4);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : sweep_dims()) {
      for (const int k : {1, 2, 3, 4, 5, 7, 8, 9, 64}) {
        const auto point = random_vec(rng, d);
        const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
        // Reference argmin over the ISA's own dist_sq, legacy tie rule.
        cluster_t ref_best = 0;
        value_t ref_sq = ops.dist_sq(point.data(), cents.data(), d);
        for (int c = 1; c < k; ++c) {
          const value_t dc = ops.dist_sq(
              point.data(), cents.data() + static_cast<std::size_t>(c) * d,
              d);
          if (dc < ref_sq) {
            ref_sq = dc;
            ref_best = static_cast<cluster_t>(c);
          }
        }
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        value_t blocked_sq = 0;
        const cluster_t blocked_best =
            ops.nearest_blocked(point.data(), pack, &blocked_sq);
        ASSERT_EQ(blocked_best, ref_best)
            << kernels::to_string(isa) << " d=" << d << " k=" << k;
        ASSERT_EQ(std::memcmp(&blocked_sq, &ref_sq, sizeof(value_t)), 0)
            << kernels::to_string(isa) << " d=" << d << " k=" << k;
        value_t generic_sq = 0;
        EXPECT_EQ(ops.nearest(point.data(), cents.data(), k, d, &generic_sq),
                  ref_best);
        EXPECT_EQ(std::memcmp(&generic_sq, &ref_sq, sizeof(value_t)), 0);

        // dist_sq_list over identity, reversed and repeated lists and
        // their prefixes; nothing is written past out[m - 1].
        std::vector<cluster_t> identity, reversed, repeated;
        for (int c = 0; c < k; ++c) {
          identity.push_back(static_cast<cluster_t>(c));
          reversed.push_back(static_cast<cluster_t>(k - 1 - c));
        }
        for (int i = 0; i < 2 * k + 3; ++i)
          repeated.push_back(static_cast<cluster_t>((i / 2) % k));
        for (const auto* list : {&identity, &reversed, &repeated}) {
          const int len = static_cast<int>(list->size());
          for (const int m : {0, 1, 3, 4, 5, len}) {
            if (m > len) continue;
            const value_t sentinel = -1.0;
            std::vector<value_t> out(static_cast<std::size_t>(m) + 1,
                                     sentinel);
            ops.dist_sq_list(point.data(), pack, list->data(), m, out.data());
            for (int i = 0; i < m; ++i) {
              const value_t want = ops.dist_sq(
                  point.data(),
                  cents.data() + static_cast<std::size_t>((*list)[i]) * d, d);
              ASSERT_EQ(std::memcmp(&out[i], &want, sizeof(value_t)), 0)
                  << kernels::to_string(isa) << " d=" << d << " k=" << k
                  << " m=" << m << " i=" << i;
            }
            EXPECT_EQ(std::memcmp(&out[m], &sentinel, sizeof(value_t)), 0)
                << kernels::to_string(isa) << " d=" << d << " m=" << m;
          }
        }
      }
    }
  }
}

// Odd-d regression sweep: pack rows must be 64-byte aligned with +0.0
// padding so the aligned full-width loads of the blocked kernel are safe.
TEST(SimdKernels, CentroidPackAlignedAndZeroPaddedForAllSmallD) {
  Prng rng(0xa119, 5);
  for (index_t d = 1; d <= 33; ++d) {
    const int k = 5;
    const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
    CentroidPack pack;
    pack.pack(cents.data(), k, d);
    EXPECT_EQ(pack.d(), d);
    EXPECT_EQ(pack.k(), k);
    EXPECT_EQ(pack.stride() % CentroidPack::kLaneAlign, 0u) << d;
    EXPECT_GE(pack.stride(), d);
    for (int c = 0; c < k; ++c) {
      const value_t* row = pack.row(c);
      EXPECT_TRUE(is_cacheline_aligned(row)) << "d=" << d << " c=" << c;
      EXPECT_EQ(std::memcmp(row, cents.data() + static_cast<std::size_t>(c) * d,
                            d * sizeof(value_t)),
                0);
      for (index_t j = d; j < pack.stride(); ++j)
        EXPECT_EQ(row[j], 0.0) << "padding lane d=" << d << " j=" << j;
    }
  }
}

// Options::simd steers the whole engine; on integer-valued data every ISA
// must produce bitwise-identical centroids (exact sums are order- and
// FMA-independent), and identical assignments/iteration counts.
TEST(SimdEngine, AllIsasAgreeOnIntegerData) {
  data::GeneratorSpec spec;
  spec.n = 900;
  spec.d = 7;  // odd d: exercises every remainder path in the engines
  spec.true_clusters = 4;
  spec.separation = 9.0;
  spec.seed = 20170627;
  DenseMatrix m = data::generate(spec);
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t c = 0; c < m.cols(); ++c) m.at(r, c) = std::round(m.at(r, c));

  Options base;
  base.k = 4;
  base.max_iters = 40;
  base.threads = 3;
  base.numa_nodes = 2;

  Options scalar_opts = base;
  scalar_opts.simd = Isa::kScalar;
  const Result ref = kmeans(m.const_view(), scalar_opts);
  ASSERT_GT(ref.iters, 1u);

  for (const Isa isa : kernels::available_isas()) {
    for (const bool prune : {false, true}) {
      Options opts = base;
      opts.simd = isa;
      opts.prune = prune;
      const Result res = kmeans(m.const_view(), opts);
      EXPECT_EQ(res.iters, ref.iters) << kernels::to_string(isa);
      EXPECT_EQ(res.assignments, ref.assignments) << kernels::to_string(isa);
      EXPECT_EQ(res.cluster_sizes, ref.cluster_sizes)
          << kernels::to_string(isa);
      EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                            ref.centroids.size() * sizeof(value_t)),
                0)
          << kernels::to_string(isa) << " centroids differ bitwise";
    }
  }
  kernels::set_isa(Isa::kAuto);  // restore for other tests in this binary
}

// ----------------------------------------------------- fused GEMM kernel

/// Integer-valued rows: every product and partial sum below is an exactly
/// representable double, so the fused kernel's result is EXACTLY equal to
/// the naive reference for every ISA (no reduction-order slack to hide in).
std::vector<value_t> random_int_vec(Prng& rng, index_t d) {
  std::vector<value_t> v(static_cast<std::size_t>(d));
  for (auto& x : v) x = std::round(20.0 * rng.next_double() - 10.0);
  return v;
}

TEST(GemmArgmin, MatchesNaiveReferenceExactlyOnIntegerData) {
  Prng rng(0x9e33, 4);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    ASSERT_NE(ops.gemm_argmin, nullptr) << kernels::to_string(isa);
    for (const index_t d : {index_t(3), index_t(8), index_t(17)}) {
      for (const int k : {1, 7, 8, 9, 23}) {
        const index_t n = 13;  // exercises the partial register block
        const auto rows = random_int_vec(rng, n * d);
        const auto cents = random_int_vec(rng, static_cast<index_t>(k) * d);
        DenseMatrix cmat(static_cast<index_t>(k), d);
        std::memcpy(cmat.data(), cents.data(),
                    cents.size() * sizeof(value_t));
        std::vector<value_t> cnorm(static_cast<std::size_t>(k));
        for (int c = 0; c < k; ++c) {
          long double s = 0;
          for (index_t j = 0; j < d; ++j) {
            const long double x = cents[static_cast<std::size_t>(c) * d + j];
            s += x * x;
          }
          cnorm[static_cast<std::size_t>(c)] = static_cast<value_t>(s);
        }
        TiledMatrix tiles;
        tiles.pack(cmat.const_view(), kernels::kGemmPanelWidth, d);
        std::vector<cluster_t> best(static_cast<std::size_t>(n), 0);
        std::vector<value_t> score(
            static_cast<std::size_t>(n),
            std::numeric_limits<value_t>::infinity());
        ops.gemm_argmin(rows.data(), n, d, tiles, 0, tiles.row_panels(),
                        cnorm.data(), best.data(), score.data());
        for (index_t i = 0; i < n; ++i) {
          cluster_t want = 0;
          value_t want_s = std::numeric_limits<value_t>::infinity();
          for (int c = 0; c < k; ++c) {
            value_t dot = 0;
            for (index_t j = 0; j < d; ++j)
              dot += rows[static_cast<std::size_t>(i) * d + j] *
                     cents[static_cast<std::size_t>(c) * d + j];
            const value_t s = cnorm[static_cast<std::size_t>(c)] - 2 * dot;
            if (s < want_s) {
              want_s = s;
              want = static_cast<cluster_t>(c);
            }
          }
          EXPECT_EQ(best[static_cast<std::size_t>(i)], want)
              << kernels::to_string(isa) << " d=" << d << " k=" << k
              << " row " << i;
          EXPECT_EQ(score[static_cast<std::size_t>(i)], want_s)
              << kernels::to_string(isa) << " d=" << d << " k=" << k
              << " row " << i;
        }
      }
    }
  }
}

TEST(GemmArgmin, BitwiseInvariantAcrossPackAndPanelSplits) {
  // The §12 contract on REAL (non-integer) data: per ISA, the (best, score)
  // outputs are bitwise identical whatever the pack's col_block and however
  // the panel range [0, P) is split across calls — tile shape is a pure
  // performance knob.
  Prng rng(0x711e, 5);
  const index_t n = 11, d = 19;
  const int k = 29;
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    const auto rows = random_vec(rng, n * d);
    const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
    DenseMatrix cmat(static_cast<index_t>(k), d);
    std::memcpy(cmat.data(), cents.data(), cents.size() * sizeof(value_t));
    std::vector<value_t> cnorm(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c)
      cnorm[static_cast<std::size_t>(c)] =
          ops.dot(cmat.row(static_cast<index_t>(c)),
                  cmat.row(static_cast<index_t>(c)), d);

    std::vector<cluster_t> ref_best;
    std::vector<value_t> ref_score;
    for (const index_t col_block : {index_t(1), index_t(5), index_t(19)}) {
      for (const index_t step : {index_t(1), index_t(2), index_t(64)}) {
        TiledMatrix tiles;
        tiles.pack(cmat.const_view(), kernels::kGemmPanelWidth, col_block);
        const index_t P = tiles.row_panels();
        std::vector<cluster_t> best(static_cast<std::size_t>(n), 0);
        std::vector<value_t> score(
            static_cast<std::size_t>(n),
            std::numeric_limits<value_t>::infinity());
        for (index_t p0 = 0; p0 < P; p0 += step)
          ops.gemm_argmin(rows.data(), n, d, tiles, p0,
                          P - p0 < step ? P : p0 + step, cnorm.data(),
                          best.data(), score.data());
        if (ref_best.empty()) {
          ref_best = best;
          ref_score = score;
        } else {
          EXPECT_EQ(best, ref_best)
              << kernels::to_string(isa) << " cb=" << col_block
              << " step=" << step;
          EXPECT_EQ(std::memcmp(score.data(), ref_score.data(),
                                score.size() * sizeof(value_t)),
                    0)
              << kernels::to_string(isa) << " cb=" << col_block
              << " step=" << step;
        }
      }
    }
  }
}

// ------------------------------------------- per-run ISA state isolation

TEST(IsaIsolation, ConcurrentEnginesWithDifferentIsasDoNotInterfere) {
  // Satellite pin for the global-ISA-state bugfix: no engine entry point
  // mutates the process-global dispatch any more, so two runs requesting
  // DIFFERENT ISAs can execute concurrently and each must reproduce its
  // own sequential result bitwise. Before the fix, each run's set_isa()
  // retargeted the other's kernels mid-flight.
  const auto isas = kernels::available_isas();
  if (isas.size() < 2) GTEST_SKIP() << "only one ISA available";
  const Isa lo = isas.front(), hi = isas.back();

  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 9;
  spec.true_clusters = 5;
  spec.seed = 20170627;
  const DenseMatrix m = data::generate(spec);

  Options base;
  base.k = 5;
  base.max_iters = 25;
  base.threads = 2;
  base.numa_nodes = 2;
  Options lo_opts = base, hi_opts = base;
  lo_opts.simd = lo;
  hi_opts.simd = hi;

  const Result lo_ref = kmeans(m.const_view(), lo_opts);
  const Result hi_ref = kmeans(m.const_view(), hi_opts);

  for (int round = 0; round < 3; ++round) {
    Result lo_res, hi_res;
    std::thread a([&] { lo_res = kmeans(m.const_view(), lo_opts); });
    std::thread b([&] { hi_res = kmeans(m.const_view(), hi_opts); });
    a.join();
    b.join();
    for (const auto* pair :
         {&lo_res, &hi_res}) {
      const Result& ref = pair == &lo_res ? lo_ref : hi_ref;
      const Result& res = *pair;
      ASSERT_EQ(res.iters, ref.iters) << round;
      EXPECT_EQ(res.assignments, ref.assignments) << round;
      EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                            ref.centroids.size() * sizeof(value_t)),
                0)
          << "round " << round << " centroids differ bitwise";
      EXPECT_EQ(std::memcmp(&res.energy, &ref.energy, sizeof(double)), 0)
          << round;
    }
  }
}

}  // namespace
}  // namespace knor
