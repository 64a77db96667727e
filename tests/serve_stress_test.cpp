// Serving front-end stress tests — the TSan CI targets (DESIGN.md §11).
// Oversubscribed (2x hardware threads) mixed assign/top-m load, burst and
// slow-consumer patterns, shutdown with work still queued. The invariants
// are exact, not statistical:
//  * submitted == completed + shed once close() has returned;
//  * the admission queue's high-water mark never exceeds its bound;
//  * every future resolves (no deadlock, no dropped admitted request);
//  * the bounded queue's own pushed/popped/shed/blocked counters
//    reconcile under concurrent producers and consumers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "core/init.hpp"
#include "data/generator.hpp"
#include "serve/front_end.hpp"

namespace knor::serve {
namespace {

int oversubscribed_clients() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::max(8u, 2 * hw));
}

struct Fixture {
  DenseMatrix pool;
  DenseMatrix centroids;

  Fixture() {
    data::GeneratorSpec spec;
    spec.n = 400;
    spec.d = 8;
    spec.true_clusters = 6;
    spec.seed = 20170802;
    pool = data::generate(spec);
    Options opts;
    opts.k = 6;
    opts.seed = 7;
    centroids = init_centroids(pool.const_view(), opts);
  }

  Options opts(int threads) const {
    Options o;
    o.k = 6;
    o.threads = threads;
    o.seed = 7;
    o.numa_nodes = 2;
    return o;
  }
};

TEST(ServeStressTest, OversubscribedMixedBurstLoadReconcilesExactly) {
  const Fixture fx;
  const int clients = oversubscribed_clients();
  const int per_client = 24;
  const int burst = 6;  // submit a burst, then drain it (slow consumer)

  FrontEndOptions fopts;
  fopts.queue_depth = 8;  // tight: force shed under bursts
  fopts.batch_window = 32;
  fopts.shed_policy = ShedPolicy::kShed;
  QueryFrontEnd fe(fx.centroids, fx.opts(2), fopts);

  std::atomic<std::uint64_t> seen_completed{0}, seen_shed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Session session(fe);
      std::vector<std::future<Response>> inflight;
      for (int i = 0; i < per_client; ++i) {
        const ConstMatrixView v = fx.pool.const_view().sub_rows(
            static_cast<index_t>((c * 31 + i * 7) % 390), 1 + i % 4);
        inflight.push_back(i % 5 == 4 ? session.submit_topm(v, 3)
                                      : session.submit_assign(v));
        if (static_cast<int>(inflight.size()) >= burst) {
          // Slow-consumer drain: hold responses while more queue up.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          for (auto& f : inflight)
            (f.get().shed ? seen_shed : seen_completed)
                .fetch_add(1, std::memory_order_relaxed);
          inflight.clear();
        }
      }
      for (auto& f : inflight)
        (f.get().shed ? seen_shed : seen_completed)
            .fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  fe.close();

  const FrontEndStats st = fe.stats();
  const auto total =
      static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(
                                                per_client);
  EXPECT_EQ(st.submitted, total);
  EXPECT_EQ(st.completed + st.shed, st.submitted);  // exact reconciliation
  EXPECT_EQ(st.completed, seen_completed.load());
  EXPECT_EQ(st.shed, seen_shed.load());
  EXPECT_LE(st.max_queue_depth, fopts.queue_depth);  // bound never exceeded
}

TEST(ServeStressTest, BlockingAdmissionIsLosslessUnderBackpressure) {
  const Fixture fx;
  const int clients = oversubscribed_clients();
  const int per_client = 16;

  FrontEndOptions fopts;
  fopts.queue_depth = 2;  // every burst backpressures
  fopts.batch_window = 1;  // maximal dispatch iterations
  fopts.shed_policy = ShedPolicy::kBlock;
  QueryFrontEnd fe(fx.centroids, fx.opts(1), fopts);

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Session session(fe);
      for (int i = 0; i < per_client; ++i) {
        const ConstMatrixView v = fx.pool.const_view().sub_rows(
            static_cast<index_t>((c * 17 + i * 11) % 395), 2);
        EXPECT_FALSE(session.submit_assign(v).get().shed);
      }
    });
  }
  for (auto& t : threads) t.join();
  fe.close();

  const FrontEndStats st = fe.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(clients) * per_client);
  EXPECT_EQ(st.completed, st.submitted);  // kBlock: nothing shed
  EXPECT_EQ(st.shed, 0u);
  EXPECT_LE(st.max_queue_depth, fopts.queue_depth);
}

TEST(ServeStressTest, ShutdownWithQueuedWorkDrainsEverythingAdmitted) {
  const Fixture fx;
  FrontEndOptions fopts;
  fopts.queue_depth = 256;
  fopts.batch_window = 100000;  // dispatcher coalesces aggressively
  QueryFrontEnd fe(fx.centroids, fx.opts(2), fopts);

  // Admit a pile of requests and close while they are still queued. The
  // shutdown contract: admitted work is computed, never dropped, and
  // close() returns (the ctest timeout is the deadlock detector).
  std::vector<std::future<Response>> inflight;
  for (int i = 0; i < 64; ++i)
    inflight.push_back(fe.submit_assign(
        fx.pool.const_view().sub_rows(static_cast<index_t>(i * 5), 3)));
  fe.close();
  for (auto& f : inflight) EXPECT_FALSE(f.get().shed);

  // Post-close submissions shed immediately — including through a blocked
  // producer path that must wake rather than hang.
  EXPECT_TRUE(fe.submit_assign(fx.pool.const_view().sub_rows(0, 1))
                  .get()
                  .shed);
  const FrontEndStats st = fe.stats();
  EXPECT_EQ(st.submitted, 65u);
  EXPECT_EQ(st.completed, 64u);
  EXPECT_EQ(st.shed, 1u);
}

TEST(ServeStressTest, BoundedQueueCountersReconcileUnderMpmc) {
  BoundedQueue<int> q(4);
  const int producers = 4, consumers = 3, per_producer = 500;
  std::atomic<std::uint64_t> consumed{0}, ok{0}, shed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        // Alternate blocking and non-blocking pushes: both the blocked
        // and the shed counters see traffic.
        const auto r = q.push(p * per_producer + i, /*block=*/i % 2 == 0);
        if (r == BoundedQueue<int>::Push::kOk)
          ok.fetch_add(1, std::memory_order_relaxed);
        else
          shed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      int v = 0;
      while (q.pop(v)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
        if (c == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (int p = 0; p < producers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t t = producers; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(ok.load() + shed.load(),
            static_cast<std::uint64_t>(producers) * per_producer);
  EXPECT_EQ(q.pushed(), ok.load());
  EXPECT_EQ(q.shed(), shed.load());
  EXPECT_EQ(q.popped(), q.pushed());  // closed after producers: fully drained
  EXPECT_EQ(consumed.load(), q.pushed());
  EXPECT_LE(q.max_occupancy(), q.capacity());
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace knor::serve
