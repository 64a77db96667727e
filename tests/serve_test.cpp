// Serving front-end property tests (DESIGN.md §11): the determinism
// contract of coalesced mega-batches.
//  * Batched assignment equals the per-row blocked kernel BITWISE for
//    every available ISA — coalescing is a scheduling decision, never a
//    numeric one.
//  * The full response set is bitwise identical across client counts
//    {1,4,16}, worker counts {1,4} and batching on/off — the grid the
//    ISSUE pins.
//  * Top-m equals the serial sorted-distance oracle including tie order
//    for every available ISA, k in {5, 17, 64} and m in {1, 4, k}
//    (duplicate centroids inside a kernel tile, across tiles and across
//    the m-th position resolve toward the lower index, matching
//    nearest_blocked), and topm[0] always equals the assignment.
// The TSan CI job runs this suite too: many client threads against one
// dispatcher must be race-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "data/generator.hpp"
#include "serve/front_end.hpp"
#include "serve/loadgen.hpp"

namespace knor::serve {
namespace {

data::GeneratorSpec make_spec(index_t n, index_t d, int clusters) {
  data::GeneratorSpec spec;
  spec.n = n;
  spec.d = d;
  spec.true_clusters = clusters;
  spec.separation = 10.0;
  spec.seed = 20170711;
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

/// The workload is a pure function of the GLOBAL request index: request i
/// is a contiguous pool slice of 1..7 rows, and every (i % 3 == 2) request
/// asks top-m. Client c of C submits requests {i : i mod C == c}, so the
/// request SET is identical across client counts — the invariant that
/// makes cross-config bitwise comparison meaningful.
struct Workload {
  const DenseMatrix& pool;
  int m;

  index_t len(int i) const { return 1 + static_cast<index_t>(i % 7); }
  ConstMatrixView view(int i) const {
    const index_t start =
        (static_cast<index_t>(i) * 13) % (pool.rows() - 8);
    return pool.const_view().sub_rows(start, len(i));
  }
  bool topm(int i) const { return i % 3 == 2; }
};

/// Drive `fe` with C client threads and return responses indexed by global
/// request id.
std::vector<Response> run_clients(QueryFrontEnd& fe, const Workload& w,
                                  int requests, int clients) {
  std::vector<Response> out(static_cast<std::size_t>(requests));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Session session(fe);
      for (int i = c; i < requests; i += clients) {
        std::future<Response> f =
            w.topm(i) ? session.submit_topm(w.view(i), w.m)
                      : session.submit_assign(w.view(i));
        out[static_cast<std::size_t>(i)] = f.get();
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

void expect_bitwise_equal(const std::vector<Response>& a,
                          const std::vector<Response>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shed, b[i].shed) << what << " req " << i;
    EXPECT_EQ(a[i].assign, b[i].assign) << what << " req " << i;
    ASSERT_EQ(a[i].dist_sq.size(), b[i].dist_sq.size()) << what;
    EXPECT_EQ(0, std::memcmp(a[i].dist_sq.data(), b[i].dist_sq.data(),
                             a[i].dist_sq.size() * sizeof(value_t)))
        << what << " req " << i;
    ASSERT_EQ(a[i].topm.size(), b[i].topm.size()) << what;
    for (std::size_t j = 0; j < a[i].topm.size(); ++j) {
      EXPECT_EQ(a[i].topm[j].cluster, b[i].topm[j].cluster)
          << what << " req " << i << " entry " << j;
      EXPECT_EQ(a[i].topm[j].dist_sq, b[i].topm[j].dist_sq)
          << what << " req " << i << " entry " << j;
    }
  }
}

TEST(ServeTest, BatchedAssignMatchesBlockedKernelPerIsa) {
  const DenseMatrix pool = data::generate(make_spec(600, 16, 8));
  const DenseMatrix centroids =
      init_centroids(pool.const_view(), base_opts(8, 1));
  const Workload w{pool, 3};
  const int requests = 45;

  for (const kernels::Isa isa : kernels::available_isas()) {
    Options opts = base_opts(8, 4);
    opts.simd = isa;
    FrontEndOptions fopts;
    fopts.batch_window = 64;  // force real coalescing
    QueryFrontEnd fe(centroids, opts, fopts);
    ASSERT_EQ(fe.ops().isa, isa);
    const std::vector<Response> got = run_clients(fe, w, requests, 4);

    // Per-row serial oracle against the SAME resolved kernel table.
    kernels::CentroidPack pack;
    pack.pack(centroids);
    const kernels::Ops& K = fe.ops();
    for (int i = 0; i < requests; ++i) {
      const ConstMatrixView v = w.view(i);
      const Response& r = got[static_cast<std::size_t>(i)];
      ASSERT_FALSE(r.shed);
      ASSERT_EQ(r.assign.size(), static_cast<std::size_t>(v.rows()));
      for (index_t row = 0; row < v.rows(); ++row) {
        value_t sq = 0;
        const cluster_t want = K.nearest_blocked(v.row(row), pack, &sq);
        EXPECT_EQ(r.assign[static_cast<std::size_t>(row)], want)
            << kernels::to_string(isa) << " req " << i << " row " << row;
        EXPECT_EQ(r.dist_sq[static_cast<std::size_t>(row)], sq)  // bitwise
            << kernels::to_string(isa) << " req " << i << " row " << row;
      }
    }
  }
}

TEST(ServeTest, ResponsesBitwiseIdenticalAcrossClientWorkerWindowGrid) {
  const DenseMatrix pool = data::generate(make_spec(500, 12, 6));
  const DenseMatrix centroids =
      init_centroids(pool.const_view(), base_opts(6, 1));
  const Workload w{pool, 2};
  const int requests = 48;

  // Reference: one client, one worker, batching off.
  std::vector<Response> ref;
  {
    FrontEndOptions fopts;
    fopts.batch_window = 1;
    QueryFrontEnd fe(centroids, base_opts(6, 1), fopts);
    ref = run_clients(fe, w, requests, 1);
  }

  for (const int clients : {1, 4, 16}) {
    for (const int workers : {1, 4}) {
      for (const index_t window : {index_t{1}, index_t{100000}}) {
        FrontEndOptions fopts;
        fopts.batch_window = window;
        QueryFrontEnd fe(centroids, base_opts(6, workers), fopts);
        const std::vector<Response> got =
            run_clients(fe, w, requests, clients);
        expect_bitwise_equal(got, ref,
                             "clients=" + std::to_string(clients) +
                                 " workers=" + std::to_string(workers) +
                                 " window=" + std::to_string(window));
        fe.close();
        const FrontEndStats st = fe.stats();
        EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(requests));
        EXPECT_EQ(st.completed + st.shed, st.submitted);
        EXPECT_EQ(st.shed, 0u);  // kBlock policy: lossless
      }
    }
  }
}

TEST(ServeTest, TopMMatchesSerialSortedOracleIncludingTieOrder) {
  const DenseMatrix pool = data::generate(make_spec(300, 8, 5));
  const index_t d = pool.cols();
  for (const int k : {5, 17, 64}) {
    DenseMatrix centroids = init_centroids(pool.const_view(), base_opts(k, 1));
    // Duplicate centroids (bitwise copies), so every query is equidistant
    // from each group and the (dist_sq, index) order is observable. The
    // blocked kernels take centroids in tiles of 4: 2 copies 1 inside tile
    // 0, and 4, 9, 13 and k-1 (those below k) copy 3 across tiles.
    const auto copy_row = [&](DenseMatrix& to, int dst, int src) {
      std::memcpy(to.row(dst), centroids.row(src),
                  static_cast<std::size_t>(d) * sizeof(value_t));
    };
    copy_row(centroids, 2, 1);
    for (const int c : {4, 9, 13, k - 1})
      if (c < k) copy_row(centroids, c, 3);
    // Probes on centroids 0, 1 and 3 put a tie group at the top of the
    // ranking, so for m = 1 and m = 4 a tie straddles the m-th position:
    // at k=5 the probe on 0 ranks the pairs {1,2} and {3,4} at 1..4.
    DenseMatrix probes(3, d);
    copy_row(probes, 0, 0);
    copy_row(probes, 1, 1);
    copy_row(probes, 2, 3);
    std::vector<ConstMatrixView> queries = {probes.const_view()};
    for (int i = 0; i < 20; ++i)
      queries.push_back(pool.const_view().sub_rows(i * 3, 2));

    for (const kernels::Isa isa : kernels::available_isas()) {
      Options opts = base_opts(k, 2);
      opts.simd = isa;
      QueryFrontEnd fe(centroids, opts, FrontEndOptions{});
      ASSERT_EQ(fe.ops().isa, isa);
      kernels::CentroidPack pack;
      pack.pack(centroids);
      const kernels::Ops& K = fe.ops();

      Session session(fe);
      for (const int m : {1, 4, k}) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const ConstMatrixView v = queries[i];
          const std::string what = std::string(kernels::to_string(isa)) +
                                   " k=" + std::to_string(k) +
                                   " m=" + std::to_string(m) + " req " +
                                   std::to_string(i);
          const Response r = session.submit_topm(v, m).get();
          ASSERT_FALSE(r.shed) << what;
          ASSERT_EQ(r.topm.size(),
                    static_cast<std::size_t>(v.rows()) *
                        static_cast<std::size_t>(m))
              << what;
          for (index_t row = 0; row < v.rows(); ++row) {
            // Serial oracle: all k distances, sorted by (dist_sq, index).
            std::vector<TopEntry> want(static_cast<std::size_t>(k));
            for (int c = 0; c < k; ++c)
              want[static_cast<std::size_t>(c)] = {
                  static_cast<cluster_t>(c),
                  K.dist_sq(v.row(row), pack.row(c), d)};
            std::sort(want.begin(), want.end(),
                      [](const TopEntry& a, const TopEntry& b) {
                        return a.dist_sq < b.dist_sq ||
                               (a.dist_sq == b.dist_sq &&
                                a.cluster < b.cluster);
                      });
            for (int j = 0; j < m; ++j) {
              const TopEntry got =
                  r.topm[static_cast<std::size_t>(row) *
                             static_cast<std::size_t>(m) +
                         static_cast<std::size_t>(j)];
              EXPECT_EQ(got.cluster, want[static_cast<std::size_t>(j)].cluster)
                  << what << " row " << row << " rank " << j;
              EXPECT_EQ(got.dist_sq, want[static_cast<std::size_t>(j)].dist_sq)
                  << what << " row " << row << " rank " << j;
            }
            // topm[0] is the assignment (and ties match nearest_blocked).
            value_t sq = 0;
            const cluster_t nearest = K.nearest_blocked(v.row(row), pack, &sq);
            EXPECT_EQ(
                r.topm[static_cast<std::size_t>(row) *
                       static_cast<std::size_t>(m)].cluster,
                nearest)
                << what << " row " << row;
            EXPECT_EQ(r.assign[static_cast<std::size_t>(row)], nearest)
                << what << " row " << row;
            EXPECT_EQ(r.dist_sq[static_cast<std::size_t>(row)], sq)
                << what << " row " << row;
          }
        }
      }
    }
  }
}

TEST(ServeTest, AssignNowMatchesSubmittedPath) {
  const DenseMatrix pool = data::generate(make_spec(200, 10, 4));
  const DenseMatrix centroids =
      init_centroids(pool.const_view(), base_opts(4, 1));
  QueryFrontEnd fe(centroids, base_opts(4, 2), FrontEndOptions{});
  const ConstMatrixView v = pool.const_view().sub_rows(17, 9);
  const Response direct = fe.assign_now(v);
  const Response queued = fe.submit_assign(v).get();
  EXPECT_EQ(direct.assign, queued.assign);
  EXPECT_EQ(0, std::memcmp(direct.dist_sq.data(), queued.dist_sq.data(),
                           direct.dist_sq.size() * sizeof(value_t)));
}

TEST(ServeTest, PipelinedClosedLoopCompletesEveryRequestLossless) {
  const DenseMatrix pool = data::generate(make_spec(300, 8, 4));
  const DenseMatrix centroids =
      init_centroids(pool.const_view(), base_opts(4, 1));

  LoadOptions base;
  base.clients = 4;
  base.requests = 96;
  base.rows_per_request = 3;
  base.topm_every = 4;
  base.m = 2;
  for (const int pipeline : {1, 4, 16}) {
    QueryFrontEnd fe(centroids, base_opts(4, 2), FrontEndOptions{});
    LoadOptions lopts = base;
    lopts.pipeline = pipeline;
    const LoadStats st = run_closed_loop(fe, pool, lopts);
    EXPECT_EQ(st.requests, base.requests) << "pipeline " << pipeline;
    EXPECT_EQ(st.completed, base.requests) << "pipeline " << pipeline;
    EXPECT_EQ(st.shed, 0u) << "pipeline " << pipeline;
    EXPECT_EQ(st.latencies_s.size(), base.requests) << "pipeline " << pipeline;
    fe.close();
    const FrontEndStats fs = fe.stats();
    EXPECT_EQ(fs.submitted, base.requests) << "pipeline " << pipeline;
    EXPECT_EQ(fs.completed, base.requests) << "pipeline " << pipeline;
  }

  LoadOptions bad = base;
  bad.pipeline = 0;
  QueryFrontEnd fe(centroids, base_opts(4, 1), FrontEndOptions{});
  EXPECT_THROW(run_closed_loop(fe, pool, bad), std::invalid_argument);
  fe.close();
}

TEST(ServeTest, ValidationAndShutdownSemantics) {
  const DenseMatrix pool = data::generate(make_spec(100, 6, 4));
  const DenseMatrix centroids =
      init_centroids(pool.const_view(), base_opts(4, 1));
  QueryFrontEnd fe(centroids, base_opts(4, 1), FrontEndOptions{});

  EXPECT_THROW(fe.submit_assign(ConstMatrixView(nullptr, 0, 6)),
               std::invalid_argument);
  DenseMatrix wrong_d(3, 5);
  EXPECT_THROW(fe.submit_assign(wrong_d.const_view()), std::invalid_argument);
  EXPECT_THROW(fe.submit_topm(pool.const_view().sub_rows(0, 2), 0),
               std::invalid_argument);
  EXPECT_THROW(fe.submit_topm(pool.const_view().sub_rows(0, 2), 5),
               std::invalid_argument);  // m > k
  EXPECT_THROW(
      QueryFrontEnd(DenseMatrix(), base_opts(4, 1), FrontEndOptions{}),
      std::invalid_argument);
  FrontEndOptions bad;
  bad.batch_window = 0;
  EXPECT_THROW(QueryFrontEnd(centroids, base_opts(4, 1), bad),
               std::invalid_argument);

  // After close(): submissions shed, close is idempotent, stats reconcile.
  const Response ok = fe.submit_assign(pool.const_view().sub_rows(0, 3)).get();
  EXPECT_FALSE(ok.shed);
  fe.close();
  fe.close();
  const Response rejected =
      fe.submit_assign(pool.const_view().sub_rows(0, 3)).get();
  EXPECT_TRUE(rejected.shed);
  EXPECT_TRUE(fe.assign_now(pool.const_view().sub_rows(0, 3)).shed);
  const FrontEndStats st = fe.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.shed, 2u);
}

}  // namespace
}  // namespace knor::serve
