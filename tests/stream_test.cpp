// Streaming subsystem tests (DESIGN.md §9):
//  * fixed-replay bitwise determinism — the same batch sequence produces
//    bit-identical centroids/weights/counts at every thread count and
//    scheduling policy (per-chunk accumulation + fixed-tree fold);
//  * snapshot/restore round-trip — save mid-stream, restore, replay the
//    rest: bitwise-equal to the uninterrupted run (sem/checkpoint interop);
//  * decay = 1 full-pass oracle — on the same batch order the engine
//    converges to the same running-mean estimator as core/minibatch;
//  * AssignServer — in-memory assignment equals the blocked kernel
//    row-by-row, and the streamed file path (matrix_io and PageFile
//    sources, any buffer depth) equals the in-memory path exactly.
// The TSan CI job runs this suite: the ingest fold and the assign_file
// reader/assigner pipeline must be race-clean.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <vector>

#include "common/prng.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "obs/registry.hpp"
#include "sem/checkpoint.hpp"
#include "stream/assign_server.hpp"
#include "stream/stream_engine.hpp"

namespace knor::stream {
namespace {

data::GeneratorSpec make_spec(index_t n, index_t d, int clusters) {
  data::GeneratorSpec spec;
  spec.n = n;
  spec.d = d;
  spec.true_clusters = clusters;
  spec.separation = 10.0;
  spec.seed = 20170627;
  return spec;
}

Options base_opts(int k, int threads) {
  Options opts;
  opts.k = k;
  opts.threads = threads;
  opts.seed = 99;
  opts.numa_nodes = 2;  // simulated topology: stable across hosts
  return opts;
}

/// Feed `data` to `engine` in fixed `batch_rows` slices, in row order.
void replay(StreamEngine& engine, const DenseMatrix& data,
            index_t batch_rows) {
  for (index_t begin = 0; begin < data.rows(); begin += batch_rows) {
    const index_t rows = std::min(batch_rows, data.rows() - begin);
    engine.ingest(ConstMatrixView(data.row(begin), rows, data.cols()));
  }
}

bool bitwise_equal(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("knor_stream_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(StreamTest, FixedReplayIsBitwiseDeterministic) {
  const DenseMatrix data = data::generate(make_spec(4096, 8, 6));
  for (const double decay : {1.0, 0.9}) {
    StreamOptions sopts;
    sopts.decay = decay;
    StreamEngine ref(base_opts(6, 1), sopts);
    replay(ref, data, 256);
    ASSERT_TRUE(ref.ready());

    for (const int threads : {1, 4}) {
      for (const auto policy :
           {sched::SchedPolicy::kNumaAware, sched::SchedPolicy::kFifo,
            sched::SchedPolicy::kStatic}) {
        Options opts = base_opts(6, threads);
        opts.sched = policy;
        StreamEngine engine(opts, sopts);
        replay(engine, data, 256);
        EXPECT_TRUE(bitwise_equal(engine.centroids(), ref.centroids()))
            << "decay=" << decay << " T=" << threads
            << " policy=" << sched::to_string(policy);
        EXPECT_EQ(engine.weights(), ref.weights());
        EXPECT_EQ(engine.counts(), ref.counts());
        EXPECT_EQ(engine.stats().batches, ref.stats().batches);
        EXPECT_EQ(engine.stats().last_batch_sse, ref.stats().last_batch_sse);
      }
    }
  }
}

TEST_F(StreamTest, SnapshotRestoreMatchesUninterruptedRun) {
  const DenseMatrix data = data::generate(make_spec(3000, 5, 4));
  StreamOptions sopts;
  sopts.decay = 0.8;
  const index_t batch = 200;
  const index_t half = 1400;  // a batch boundary

  StreamEngine whole(base_opts(4, 3), sopts);
  replay(whole, data, batch);

  StreamEngine first(base_opts(4, 3), sopts);
  for (index_t begin = 0; begin < half; begin += batch)
    first.ingest(ConstMatrixView(data.row(begin), batch, data.cols()));
  const std::string path = dir_ / "mid.ckpt";
  first.save_snapshot(path);

  StreamEngine second(base_opts(4, 1), sopts);  // thread count may differ
  second.restore(sem::load_checkpoint(path));
  EXPECT_EQ(second.stats().batches, half / batch);
  for (index_t begin = half; begin < data.rows(); begin += batch) {
    const index_t rows = std::min(batch, data.rows() - begin);
    second.ingest(ConstMatrixView(data.row(begin), rows, data.cols()));
  }

  EXPECT_TRUE(bitwise_equal(second.centroids(), whole.centroids()));
  EXPECT_EQ(second.weights(), whole.weights());
  EXPECT_EQ(second.counts(), whole.counts());
  EXPECT_EQ(second.stats().batches, whole.stats().batches);
}

TEST_F(StreamTest, AutoSnapshotWritesEveryInterval) {
  const DenseMatrix data = data::generate(make_spec(2000, 4, 4));
  StreamOptions sopts;
  sopts.snapshot_every = 3;
  sopts.snapshot_path = dir_ / "auto.ckpt";
  StreamEngine engine(base_opts(4, 2), sopts);
  replay(engine, data, 250);  // 8 batches -> snapshots after 3 and 6
  EXPECT_EQ(engine.stats().snapshots, 2u);
  const sem::Checkpoint ckpt = sem::load_checkpoint(sopts.snapshot_path);
  EXPECT_EQ(ckpt.iteration, 6u);
  EXPECT_FALSE(ckpt.weights.empty());
  EXPECT_TRUE(ckpt.assignments.empty());  // streams carry no per-point state
}

// decay = 1 makes each centroid the exact running mean of every row ever
// assigned to it — the estimator mini-batch k-means computes with its
// per-centre 1/count learning rates. Replaying minibatch's exact batch
// order (same sampler stream) must land on the same centroids up to
// floating-point association.
TEST_F(StreamTest, DecayOneMatchesMinibatchOracleOnSameBatchOrder) {
  const data::GeneratorSpec spec = make_spec(2000, 4, 5);
  const DenseMatrix data = data::generate(spec);
  Options opts = base_opts(5, 2);

  MinibatchOptions mb;
  mb.batch_size = 256;
  mb.max_iters = 20;
  const Result oracle = minibatch(data.const_view(), opts, mb);

  // Same init, same batches: minibatch draws init_centroids(data, opts)
  // and samples indices from Prng(seed, 0xba7c) (core/minibatch.cpp).
  Options sopts_init = opts;
  sopts_init.init = Init::kProvided;
  sopts_init.initial_centroids = init_centroids(data.const_view(), opts);
  StreamOptions sopts;
  sopts.decay = 1.0;
  StreamEngine engine(sopts_init, sopts);

  Prng rng(opts.seed, /*stream=*/0xba7c);
  DenseMatrix batch(mb.batch_size, data.cols());
  for (int it = 0; it < mb.max_iters; ++it) {
    for (index_t i = 0; i < mb.batch_size; ++i)
      std::memcpy(batch.row(i), data.row(rng.next_below(data.rows())),
                  data.cols() * sizeof(value_t));
    engine.ingest(batch.const_view());
  }

  ASSERT_EQ(engine.centroids().rows(), oracle.centroids.rows());
  for (index_t c = 0; c < engine.centroids().rows(); ++c)
    for (index_t j = 0; j < engine.centroids().cols(); ++j) {
      const double ref = oracle.centroids.at(c, j);
      EXPECT_NEAR(engine.centroids().at(c, j), ref,
                  1e-9 * (1.0 + std::fabs(ref)))
          << "c=" << c << " j=" << j;
    }
  // Total rows per cluster match the oracle's sampler exactly (integers).
  std::int64_t total = 0;
  for (const std::int64_t c : engine.counts()) total += c;
  EXPECT_EQ(total, static_cast<std::int64_t>(mb.batch_size) * mb.max_iters);
}

TEST_F(StreamTest, SeedBufferingHandlesBatchesSmallerThanK) {
  const DenseMatrix data = data::generate(make_spec(64, 3, 4));
  StreamOptions sopts;
  StreamEngine engine(base_opts(8, 2), sopts);
  index_t fed = 0;
  for (index_t begin = 0; begin + 3 <= 12; begin += 3) {
    engine.ingest(ConstMatrixView(data.row(begin), 3, data.cols()));
    fed += 3;
    EXPECT_EQ(engine.ready(), fed >= 8) << "fed=" << fed;
  }
  EXPECT_TRUE(engine.ready());
  EXPECT_EQ(engine.stats().rows, fed);
  // Every buffered row was applied once the seed init ran.
  std::int64_t assigned = 0;
  for (const std::int64_t c : engine.counts()) assigned += c;
  EXPECT_EQ(assigned, static_cast<std::int64_t>(fed));
}

TEST_F(StreamTest, InvalidConfigurationsThrow) {
  StreamOptions sopts;
  sopts.decay = 0.0;
  EXPECT_THROW(StreamEngine(base_opts(4, 1), sopts), std::invalid_argument);
  sopts.decay = 1.5;
  EXPECT_THROW(StreamEngine(base_opts(4, 1), sopts), std::invalid_argument);
  sopts = StreamOptions();
  sopts.snapshot_every = 2;  // without a path
  EXPECT_THROW(StreamEngine(base_opts(4, 1), sopts), std::invalid_argument);

  sopts = StreamOptions();
  StreamEngine engine(base_opts(4, 1), sopts);
  EXPECT_THROW(engine.snapshot(), std::runtime_error);  // not ready yet
  const DenseMatrix data = data::generate(make_spec(100, 3, 4));
  engine.ingest(data.const_view());
  DenseMatrix wrong_d(10, 5);
  EXPECT_THROW(engine.ingest(wrong_d.const_view()), std::invalid_argument);

  // Restoring a non-stream (SEM-style) checkpoint must be rejected.
  sem::Checkpoint sem_ckpt;
  sem_ckpt.centroids = DenseMatrix(4, 3);
  EXPECT_THROW(engine.restore(sem_ckpt), std::invalid_argument);
}

TEST_F(StreamTest, AssignMatchesBlockedKernelRowByRow) {
  const data::GeneratorSpec spec = make_spec(1500, 6, 5);
  const DenseMatrix data = data::generate(spec);
  Options opts = base_opts(5, 3);
  const DenseMatrix centroids = init_centroids(data.const_view(), opts);

  AssignServer server(centroids, opts);
  std::vector<cluster_t> got(data.rows());
  std::vector<value_t> got_sq(data.rows());
  server.assign(data.const_view(), got.data(), got_sq.data());

  kernels::CentroidPack pack;
  pack.pack(centroids);
  const kernels::Ops& K = kernels::ops();
  std::vector<std::int64_t> expect_hist(5, 0);
  for (index_t r = 0; r < data.rows(); ++r) {
    value_t sq = 0;
    const cluster_t want = K.nearest_blocked(data.row(r), pack, &sq);
    ASSERT_EQ(got[r], want) << "row " << r;
    ASSERT_EQ(got_sq[r], sq) << "row " << r;  // bitwise, same kernel
    ++expect_hist[want];
  }
  EXPECT_EQ(server.served_histogram(), expect_hist);
}

TEST_F(StreamTest, AssignFileMatchesInMemoryForBothSources) {
  const data::GeneratorSpec spec = make_spec(2500, 7, 4);
  const std::string path = dir_ / "queries.kmat";
  data::write_generated(path, spec);
  const DenseMatrix data = data::generate(spec);
  Options opts = base_opts(4, 2);
  const DenseMatrix centroids = init_centroids(data.const_view(), opts);

  std::vector<cluster_t> expect(data.rows());
  {
    AssignServer mem(centroids, opts);
    mem.assign(data.const_view(), expect.data());
  }

  for (const auto source : {AssignOptions::Source::kMatrixIo,
                            AssignOptions::Source::kPageFile}) {
    for (const int buffers : {1, 2, 4}) {
      AssignServer server(centroids, opts);
      AssignOptions aopts;
      aopts.source = source;
      aopts.batch_rows = 300;  // n is not a multiple: exercises the tail
      aopts.io_buffers = buffers;
      aopts.page_size = 512;
      std::vector<cluster_t> got(data.rows(), kInvalidCluster);
      index_t expected_next = 0;
      const AssignStats stats = server.assign_file(
          path, aopts,
          [&](index_t first, const cluster_t* assign, index_t count) {
            EXPECT_EQ(first, expected_next);  // row-order delivery
            expected_next = first + count;
            std::memcpy(got.data() + first, assign,
                        count * sizeof(cluster_t));
          });
      EXPECT_EQ(stats.rows, data.rows());
      EXPECT_EQ(stats.batches, (data.rows() + 299) / 300);
      EXPECT_GT(stats.bytes_read, 0u);
      EXPECT_EQ(got, expect);
    }
  }
}

// The consumer-side wall partition: every consumer wait lands in exactly
// one of compute_wait (mid-stream, I/O-bound) or drain (the final wait for
// the reader's done signal — once misattributed to compute_wait), and
// compute covers the assign+sink work, so the three buckets are disjoint
// slices of wall time and reconcile against it. The drain split also
// reaches the obs export as its own timing counter.
TEST_F(StreamTest, AssignFileStatsBucketsReconcileWithWallTime) {
  const data::GeneratorSpec spec = make_spec(4000, 6, 4);
  const std::string path = dir_ / "recon.kmat";
  data::write_generated(path, spec);
  const DenseMatrix data = data::generate(spec);
  Options opts = base_opts(4, 2);
  const DenseMatrix centroids = init_centroids(data.const_view(), opts);

  AssignServer server(centroids, opts);
  AssignOptions aopts;
  aopts.batch_rows = 256;  // many batches: both wait paths get exercised
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const AssignStats st = server.assign_file(path, aopts);

  EXPECT_GE(st.compute_wait_s, 0.0);
  EXPECT_GE(st.compute_s, 0.0);
  EXPECT_GE(st.drain_s, 0.0);
  EXPECT_GT(st.compute_s, 0.0);  // 16 batches of real kernel work
  // Disjoint intervals of one monotonic clock: the buckets can never
  // exceed the wall that contains them (tiny epsilon for timer rounding).
  EXPECT_LE(st.compute_wait_s + st.compute_s + st.drain_s, st.wall_s + 1e-6);
  // The unattributed remainder is loop bookkeeping (lock handoffs,
  // notify, sink dispatch) — generously bounded, not proportional to work.
  EXPECT_LT(st.wall_s - (st.compute_wait_s + st.compute_s + st.drain_s),
            0.5);

  // The split is exported: drain and compute appear as their own kTiming
  // counters next to the deterministic row/batch totals. Presence and
  // classification are checked on the full registry snapshot — obs::diff
  // drops zero-delta metrics, and a fast run can legitimately drain in
  // under a microsecond.
  const obs::Snapshot full = obs::Registry::global().snapshot();
  for (const char* name :
       {"stream.assign.drain_us", "stream.assign.compute_us",
        "stream.assign.compute_wait_us"}) {
    const obs::Metric* m = full.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->det, obs::Det::kTiming) << name;
  }
  // Per-run deltas still diff against the pre-run snapshot — the registry
  // is process-wide and earlier tests in this binary also serve files.
  const obs::Snapshot snap =
      obs::diff(before, obs::Registry::global().snapshot());
  EXPECT_GE(snap.value_or("stream.assign.compute_us", -1), 1);
  EXPECT_EQ(snap.value_or("stream.assign.rows", 0),
            static_cast<std::int64_t>(st.rows));
}

TEST_F(StreamTest, AssignFileRejectsMismatchedShapes) {
  const std::string path = dir_ / "q.kmat";
  data::write_generated(path, make_spec(100, 5, 4));
  Options opts = base_opts(4, 1);
  AssignServer server(DenseMatrix(4, 7), opts);  // d=7 != file's d=5
  EXPECT_THROW(server.assign_file(path, AssignOptions()),
               std::invalid_argument);
  AssignOptions bad_page;
  bad_page.source = AssignOptions::Source::kPageFile;
  bad_page.page_size = 100;  // not a multiple of sizeof(value_t)
  AssignServer server2(DenseMatrix(4, 5), opts);
  EXPECT_THROW(server2.assign_file(path, bad_page), std::invalid_argument);
  AssignOptions no_buffers;
  no_buffers.io_buffers = 0;
  EXPECT_THROW(server2.assign_file(path, no_buffers), std::invalid_argument);
}

// A sink's exception leaves assign_file on the calling thread, with the
// reader stopped, and the server serves the next file whole.
TEST_F(StreamTest, AssignFileSinkErrorPropagatesAndServerRecovers) {
  const data::GeneratorSpec spec = make_spec(2500, 7, 4);
  const std::string path = dir_ / "sink.kmat";
  data::write_generated(path, spec);
  const DenseMatrix data = data::generate(spec);
  Options opts = base_opts(4, 2);
  const DenseMatrix centroids = init_centroids(data.const_view(), opts);
  std::vector<cluster_t> expect(data.rows());
  AssignServer server(centroids, opts);
  server.assign(data.const_view(), expect.data());

  struct SinkFailure {};
  for (const auto source : {AssignOptions::Source::kMatrixIo,
                            AssignOptions::Source::kPageFile}) {
    AssignOptions aopts;
    aopts.source = source;
    aopts.batch_rows = 300;
    int calls = 0;
    EXPECT_THROW(server.assign_file(path, aopts,
                                    [&](index_t, const cluster_t*, index_t) {
                                      if (++calls == 3) throw SinkFailure{};
                                    }),
                 SinkFailure);
    EXPECT_EQ(calls, 3);

    std::vector<cluster_t> got(data.rows(), kInvalidCluster);
    const AssignStats stats = server.assign_file(
        path, aopts, [&](index_t first, const cluster_t* assign,
                         index_t count) {
          std::memcpy(got.data() + first, assign, count * sizeof(cluster_t));
        });
    EXPECT_EQ(stats.rows, data.rows());
    EXPECT_EQ(got, expect);
  }
}

// A query file that shrinks while it is served is an error from either
// source; the page source must not serve the missing rows as zeros. The
// sink cuts the file to 150 rows on its first call. With two buffers the
// reader cannot be past batch 2 then, so it reads past the cut.
TEST_F(StreamTest, AssignFileThrowsWhenTheFileShrinks) {
  const data::GeneratorSpec spec = make_spec(1000, 8, 4);
  const DenseMatrix data = data::generate(spec);
  Options opts = base_opts(4, 2);
  const DenseMatrix centroids = init_centroids(data.const_view(), opts);
  for (const auto source : {AssignOptions::Source::kMatrixIo,
                            AssignOptions::Source::kPageFile}) {
    const std::string path = dir_ / "shrinks.kmat";
    data::write_generated(path, spec);
    AssignServer server(centroids, opts);
    AssignOptions aopts;
    aopts.source = source;
    aopts.batch_rows = 100;
    aopts.io_buffers = 2;
    int calls = 0;
    EXPECT_THROW(
        server.assign_file(path, aopts,
                           [&](index_t, const cluster_t*, index_t) {
                             if (calls++ == 0)
                               std::filesystem::resize_file(
                                   path, data::kHeaderBytes +
                                             150 * spec.d * sizeof(value_t));
                           }),
        std::runtime_error);
    EXPECT_LE(calls, 2);
  }
}

// End-to-end: ingest a stream, freeze, serve — the served histogram over
// the training file equals assigning every row against the final
// centroids.
TEST_F(StreamTest, IngestThenServeEndToEnd) {
  const data::GeneratorSpec spec = make_spec(3000, 6, 5);
  const std::string path = dir_ / "train.kmat";
  data::write_generated(path, spec);

  Options opts = base_opts(5, 2);
  StreamOptions sopts;
  sopts.decay = 0.95;
  sopts.batch_rows = 500;
  StreamEngine engine(opts, sopts);
  EXPECT_EQ(engine.ingest_file(path), 3000u);
  EXPECT_EQ(engine.stats().batches, 6u);

  const std::string snap = dir_ / "model.ckpt";
  engine.save_snapshot(snap);
  const sem::Checkpoint loaded = sem::load_checkpoint(snap);
  EXPECT_TRUE(bitwise_equal(loaded.centroids, engine.centroids()));
  AssignServer server(loaded, opts);
  EXPECT_EQ(server.k(), 5);

  const AssignStats stats = server.assign_file(path, AssignOptions());
  EXPECT_EQ(stats.rows, 3000u);
  std::int64_t served = 0;
  for (const std::int64_t c : server.served_histogram()) served += c;
  EXPECT_EQ(served, 3000);
}

}  // namespace
}  // namespace knor::stream
