// Tests for the future-work variants (paper §9): spherical k-means and
// semi-supervised (seeded) k-means, plus the knors checkpoint/resume path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "core/knori.hpp"
#include "core/variants.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "sem/checkpoint.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor {
namespace {

DenseMatrix sphere_data(index_t n, index_t d, int components,
                        std::uint64_t seed = 3) {
  data::GeneratorSpec spec;
  spec.n = n;
  spec.d = d;
  spec.true_clusters = components;
  spec.separation = 10.0;
  spec.seed = seed;
  return data::generate(spec);
}

TEST(Spherical, CentroidsOnUnitSphere) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  Options opts;
  opts.k = 5;
  opts.threads = 2;
  opts.max_iters = 30;
  const Result res = spherical_kmeans(m.const_view(), opts);
  for (index_t c = 0; c < res.centroids.rows(); ++c) {
    value_t norm_sq = 0;
    for (index_t j = 0; j < 8; ++j)
      norm_sq += res.centroids.at(c, j) * res.centroids.at(c, j);
    EXPECT_NEAR(norm_sq, 1.0, 1e-9) << "centroid " << c;
  }
}

TEST(Spherical, EnergyIsCosineDissimilarityInRange) {
  const DenseMatrix m = sphere_data(2000, 6, 4);
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  const Result res = spherical_kmeans(m.const_view(), opts);
  // 1 - cos in [0, 2] per point.
  EXPECT_GE(res.energy, 0.0);
  EXPECT_LE(res.energy, 2.0 * 2000);
  index_t total = 0;
  for (index_t s : res.cluster_sizes) total += s;
  EXPECT_EQ(total, 2000u);
}

TEST(Spherical, ScaleInvariant) {
  // Spherical clustering depends only on direction: scaling every row by a
  // positive constant must not change the clustering.
  const DenseMatrix m = sphere_data(2000, 8, 4);
  DenseMatrix scaled_m = m;
  for (std::size_t i = 0; i < scaled_m.size(); ++i) scaled_m.data()[i] *= 37.5;
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 25;
  const Result a = spherical_kmeans(m.const_view(), opts);
  const Result b = spherical_kmeans(scaled_m.const_view(), opts);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i)
    ASSERT_EQ(a.assignments[i], b.assignments[i]) << i;
}

TEST(Spherical, ThreadCountInvariant) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  Options base;
  base.k = 5;
  base.threads = 1;
  base.max_iters = 30;
  const Result one = spherical_kmeans(m.const_view(), base);
  base.threads = 4;
  const Result four = spherical_kmeans(m.const_view(), base);
  EXPECT_EQ(one.iters, four.iters);
  EXPECT_LT(std::abs(one.energy - four.energy) /
                std::max(1e-30, one.energy),
            1e-9);
}

TEST(Spherical, ZeroRowRejected) {
  DenseMatrix m(10, 3);  // all zeros
  Options opts;
  opts.k = 2;
  EXPECT_THROW(spherical_kmeans(m.const_view(), opts), std::invalid_argument);
}

TEST(Seeded, LabeledPointsNeverMove) {
  const DenseMatrix m = sphere_data(4000, 6, 4);
  std::vector<cluster_t> labels(4000, kInvalidCluster);
  // Label every 10th point with an arbitrary (even adversarial) cluster.
  for (index_t r = 0; r < 4000; r += 10)
    labels[r] = static_cast<cluster_t>(r / 10 % 4);
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 40;
  const Result res = seeded_kmeans(m.const_view(), opts, labels);
  for (index_t r = 0; r < 4000; ++r) {
    if (labels[r] != kInvalidCluster) {
      ASSERT_EQ(res.assignments[r], labels[r]) << r;
    }
  }
}

TEST(Seeded, NoLabelsBehavesLikeKmeans) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  const std::vector<cluster_t> labels(3000, kInvalidCluster);
  Options opts;
  opts.k = 5;
  opts.threads = 2;
  opts.max_iters = 50;
  const Result seeded = seeded_kmeans(m.const_view(), opts, labels);
  const Result plain = kmeans(m.const_view(), opts);
  // Different init paths may reach different local optima; both must be
  // valid clusterings with comparable energy on easy data.
  EXPECT_LT(seeded.energy, 3 * plain.energy);
  index_t total = 0;
  for (index_t s : seeded.cluster_sizes) total += s;
  EXPECT_EQ(total, 3000u);
}

TEST(Seeded, SeedsGuideClusterIdentity) {
  // Plant 6 components and seed cluster c with points from component c.
  // The recovered clustering must map component c to cluster c (no label
  // permutation ambiguity — the point of semi-supervision).
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 8;
  spec.true_clusters = 6;
  spec.separation = 12.0;
  const DenseMatrix m = data::generate(spec);
  std::vector<cluster_t> labels(6000, kInvalidCluster);
  int labeled = 0;
  for (index_t r = 0; r < 6000 && labeled < 300; ++r) {
    labels[r] =
        static_cast<cluster_t>(data::true_component_of_row(spec, r));
    ++labeled;
  }
  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 60;
  const Result res = seeded_kmeans(m.const_view(), opts, labels);
  index_t agree = 0;
  for (index_t r = 0; r < 6000; ++r)
    if (res.assignments[r] ==
        static_cast<cluster_t>(data::true_component_of_row(spec, r)))
      ++agree;
  EXPECT_GT(static_cast<double>(agree) / 6000.0, 0.95);
}

TEST(Seeded, InvalidInputsThrow) {
  const DenseMatrix m = sphere_data(100, 4, 2);
  Options opts;
  opts.k = 2;
  std::vector<cluster_t> wrong_size(50, kInvalidCluster);
  EXPECT_THROW(seeded_kmeans(m.const_view(), opts, wrong_size),
               std::invalid_argument);
  std::vector<cluster_t> bad_label(100, kInvalidCluster);
  bad_label[0] = 7;  // >= k
  EXPECT_THROW(seeded_kmeans(m.const_view(), opts, bad_label),
               std::invalid_argument);
}

// --- Checkpoint/resume ------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("knor_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  sem::Checkpoint ckpt;
  ckpt.iteration = 17;
  ckpt.centroids = DenseMatrix(3, 4);
  ckpt.centroids.at(2, 3) = 5.5;
  ckpt.assignments = {0, 1, 2, 1, 0};
  ckpt.upper_bounds = {1.0, 2.0, 3.0, 4.0, 5.0};
  ckpt.sums = DenseMatrix(3, 4);
  ckpt.sums.at(0, 0) = -2.0;
  ckpt.counts = {2, 2, 1};
  const std::string path = dir_ / "a.ckpt";
  sem::save_checkpoint(path, ckpt);
  EXPECT_TRUE(sem::checkpoint_exists(path));

  const sem::Checkpoint loaded = sem::load_checkpoint(path);
  EXPECT_EQ(loaded.iteration, 17u);
  EXPECT_EQ(loaded.centroids.at(2, 3), 5.5);
  EXPECT_EQ(loaded.assignments, ckpt.assignments);
  EXPECT_EQ(loaded.upper_bounds, ckpt.upper_bounds);
  EXPECT_EQ(loaded.sums.at(0, 0), -2.0);
  EXPECT_EQ(loaded.counts, ckpt.counts);
}

TEST_F(CheckpointTest, CorruptFilesRejected) {
  const std::string path = dir_ / "bad.ckpt";
  EXPECT_FALSE(sem::checkpoint_exists(path));
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTACKPT and some trailing bytes", f);
    std::fclose(f);
  }
  EXPECT_FALSE(sem::checkpoint_exists(path));
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);
}

class CheckpointResume : public CheckpointTest,
                         public ::testing::WithParamInterface<bool> {};

TEST_P(CheckpointResume, ResumedRunMatchesUninterrupted) {
  const bool prune = GetParam();
  data::GeneratorSpec spec;
  spec.n = 5000;
  spec.d = 8;
  // Uniform data converges slowly, guaranteeing the run is still going at
  // the interruption point (iteration 8).
  spec.dist = data::Distribution::kUniformRandom;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 30;
  opts.prune = prune;

  sem::SemOptions plain;
  sem::SemStats whole;
  const Result uninterrupted = sem::kmeans(matrix, opts, plain, &whole);

  // Interrupted run: checkpoint every 4 iterations, "crash" at 8 by capping
  // max_iters, then resume to completion.
  sem::SemOptions with_ckpt = plain;
  with_ckpt.checkpoint_path = dir_ / "run.ckpt";
  with_ckpt.checkpoint_interval = 4;
  Options first_leg = opts;
  first_leg.max_iters = 8;
  sem::kmeans(matrix, first_leg, with_ckpt);
  ASSERT_TRUE(sem::checkpoint_exists(with_ckpt.checkpoint_path));

  sem::SemOptions resume_opts = with_ckpt;
  resume_opts.resume = true;
  sem::SemStats resumed_io;
  const Result resumed = sem::kmeans(matrix, opts, resume_opts, &resumed_io);

  // iters counts the whole run, the restored iterations too, as knori's
  // and knord's do; iter_times holds only the iterations this call ran.
  EXPECT_EQ(resumed.iters, uninterrupted.iters);
  EXPECT_EQ(resumed.iter_times.count() + 8, uninterrupted.iter_times.count());
  EXPECT_LT(std::abs(resumed.energy - uninterrupted.energy) /
                uninterrupted.energy,
            1e-9);
  for (std::size_t i = 0; i < uninterrupted.assignments.size(); ++i)
    ASSERT_EQ(resumed.assignments[i], uninterrupted.assignments[i]) << i;

  // The resumed run misses the row-cache refresh at iteration 5 and picks
  // the schedule up at 10; from iteration 11 on its cache holds what the
  // uninterrupted run's holds. resumed_io.per_iter[j] is iteration 9 + j.
  ASSERT_EQ(resumed_io.per_iter.size() + 8, whole.per_iter.size());
  ASSERT_GT(resumed_io.per_iter.size(), 2u);
  std::uint64_t hits = 0;
  for (std::size_t j = 2; j < resumed_io.per_iter.size(); ++j) {
    EXPECT_EQ(resumed_io.per_iter[j].row_cache_hits,
              whole.per_iter[j + 8].row_cache_hits)
        << "iteration " << j + 9;
    hits += resumed_io.per_iter[j].row_cache_hits;
  }
  EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(PruneModes, CheckpointResume, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "mti" : "nomti";
                         });

TEST_F(CheckpointTest, ShapeMismatchRejectedOnResume) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 4;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 3;
  opts.threads = 1;
  opts.max_iters = 6;
  sem::SemOptions sopts;
  sopts.checkpoint_path = dir_ / "s.ckpt";
  sopts.checkpoint_interval = 2;
  sem::kmeans(matrix, opts, sopts);

  Options wrong_k = opts;
  wrong_k.k = 4;
  sem::SemOptions resume_opts = sopts;
  resume_opts.resume = true;
  EXPECT_THROW(sem::kmeans(matrix, wrong_k, resume_opts), std::runtime_error);
}

// knors checkpoints at the loop's iteration boundaries, and the loop calls
// its observer on every boundary but the converging one: a run that
// converges at a due iteration writes no checkpoint there, so the last one
// on disk is the boundary before. Resuming from it replays the converging
// iteration to the same bits.
TEST_F(CheckpointTest, ConvergingIterationWritesNoCheckpoint) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 4;
  spec.true_clusters = 3;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  for (const bool prune : {true, false}) {
    Options opts;
    opts.k = 3;
    opts.threads = 2;
    opts.max_iters = 100;
    opts.prune = prune;
    sem::SemOptions sopts;
    sopts.checkpoint_path = dir_ / (prune ? "mti.ckpt" : "nomti.ckpt");
    sopts.checkpoint_interval = 1;
    const Result whole = sem::kmeans(matrix, opts, sopts);
    ASSERT_TRUE(whole.converged) << "prune=" << prune;
    ASSERT_GT(whole.iters, 1u) << "prune=" << prune;
    const sem::Checkpoint ckpt = sem::load_checkpoint(sopts.checkpoint_path);
    EXPECT_EQ(ckpt.iteration, whole.iters - 1) << "prune=" << prune;

    sem::SemOptions resume_opts = sopts;
    resume_opts.resume = true;
    const Result last = sem::kmeans(matrix, opts, resume_opts);
    EXPECT_TRUE(last.converged) << "prune=" << prune;
    // The resumed call ran one iteration; iters counts the whole run.
    EXPECT_EQ(last.iter_times.count(), 1u) << "prune=" << prune;
    EXPECT_EQ(last.iters, whole.iters) << "prune=" << prune;
    EXPECT_EQ(last.assignments, whole.assignments) << "prune=" << prune;
    EXPECT_EQ(std::memcmp(last.centroids.data(), whole.centroids.data(),
                          whole.centroids.size() * sizeof(value_t)),
              0)
        << "prune=" << prune;
  }
}

// With MTI, knors accumulates membership deltas against persistent sums,
// so a checkpoint without its sums and counts cannot resume: it would
// restart the centroids from zero sums. (Without MTI the sums are rebuilt
// every iteration; CheckpointResume/nomti covers that resume.)
TEST_F(CheckpointTest, ResumeWithoutSumsRejected) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 4;
  spec.dist = data::Distribution::kUniformRandom;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 3;
  opts.threads = 2;
  opts.max_iters = 4;
  opts.prune = true;
  sem::SemOptions sopts;
  sopts.checkpoint_path = dir_ / "mti.ckpt";
  sopts.checkpoint_interval = 2;
  sem::kmeans(matrix, opts, sopts);

  sem::Checkpoint ckpt = sem::load_checkpoint(sopts.checkpoint_path);
  ASSERT_FALSE(ckpt.sums.empty());
  ckpt.sums = DenseMatrix();
  ckpt.counts.clear();
  sem::save_checkpoint(sopts.checkpoint_path, ckpt);

  sem::SemOptions resume_opts = sopts;
  resume_opts.resume = true;
  opts.max_iters = 8;
  try {
    sem::kmeans(matrix, opts, resume_opts);
    ADD_FAILURE() << "resumed without sums";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sums"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace knor
