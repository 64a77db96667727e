// Unit tests for the scheduler layer: barrier, the NUMA-partitioned
// work-stealing Scheduler (per-node deques, hierarchical steal order,
// adaptive task sizing), the fixed-tree reduction, and the NodeDistance
// victim ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "numa/cost_model.hpp"
#include "numa/partitioner.hpp"
#include "sched/barrier.hpp"
#include "sched/reduction.hpp"
#include "sched/scheduler.hpp"

namespace knor::sched {
namespace {

numa::Topology test_topo() { return numa::Topology::simulated(2, 4); }

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> phase0{0};
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++phase0;
      barrier.arrive_and_wait();
      // After the barrier every thread must observe all phase-0 increments.
      if (phase0.load() != kThreads) ok = false;
      barrier.arrive_and_wait();  // reusable
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok);
}

TEST(Scheduler, RunsEveryWorkerExactlyOnce) {
  Scheduler sched(6, test_topo());
  std::vector<std::atomic<int>> hits(6);
  sched.run([&](int tid) { ++hits[static_cast<std::size_t>(tid)]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ReusableAcrossRuns) {
  Scheduler sched(3, test_topo());
  std::atomic<int> total{0};
  for (int i = 0; i < 50; ++i) sched.run([&](int) { ++total; });
  EXPECT_EQ(total.load(), 150);
}

TEST(Scheduler, PropagatesWorkerException) {
  Scheduler sched(4, test_topo());
  EXPECT_THROW(sched.run([](int tid) {
                 if (tid == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // Scheduler must remain usable after an exception.
  std::atomic<int> total{0};
  sched.run([&](int) { ++total; });
  EXPECT_EQ(total.load(), 4);
}

TEST(Scheduler, NodeAssignmentRoundRobin) {
  Scheduler sched(4, test_topo());
  EXPECT_EQ(sched.node_of_thread(0), 0);
  EXPECT_EQ(sched.node_of_thread(1), 1);
  EXPECT_EQ(sched.node_of_thread(2), 0);
  EXPECT_EQ(sched.node_of_thread(3), 1);
}

TEST(Scheduler, AdaptiveTaskSizeIsThreadCountIndependent) {
  // auto_task_size is a pure function of n: bounded by [kMinTaskSize,
  // kPaperTaskSize] and targeting kAutoChunkTarget chunks.
  EXPECT_EQ(Scheduler::auto_task_size(100), Scheduler::kMinTaskSize);
  EXPECT_EQ(Scheduler::auto_task_size(10'000'000), Scheduler::kPaperTaskSize);
  const index_t n = 1'000'000;
  const index_t ts = Scheduler::auto_task_size(n);
  EXPECT_GE(ts, Scheduler::kMinTaskSize);
  EXPECT_LE(ts, Scheduler::kPaperTaskSize);
  EXPECT_LE(Scheduler::num_chunks(n, ts), Scheduler::kAutoChunkTarget + 1);
  // resolve: 0 -> adaptive; every path floored to the kMaxChunks grid cap.
  EXPECT_EQ(Scheduler::resolve_task_size(n, 0), ts);
  EXPECT_EQ(Scheduler::resolve_task_size(n, 2048), 2048u);
  for (const index_t requested : {index_t(0), index_t(64)})
    for (const index_t big : {index_t(100'000'000), index_t(1'000'000'000)})
      EXPECT_LE(Scheduler::num_chunks(
                    big, Scheduler::resolve_task_size(big, requested)),
                Scheduler::kMaxChunks)
          << big << "/" << requested;
  // Idempotent: engines pre-resolve, begin_chunks resolves again.
  const index_t resolved = Scheduler::resolve_task_size(1'000'000'000, 0);
  EXPECT_EQ(Scheduler::resolve_task_size(1'000'000'000, resolved), resolved);
}

class PolicyTest : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(PolicyTest, DrainsAllRowsExactlyOnce) {
  const auto topo = test_topo();
  const numa::Partitioner parts(10000, 4, topo);
  Scheduler sched(4, topo, /*bind=*/true, GetParam());
  sched.begin_chunks(10000, 256, &parts);

  std::vector<int> seen(10000, 0);
  Task task;
  // Single consumer draining on behalf of all threads.
  for (int t = 0; t < 4; ++t)
    while (sched.next_chunk(t, task))
      for (index_t r = task.begin; r < task.end; ++r)
        ++seen[static_cast<std::size_t>(r)];
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_P(PolicyTest, BeginChunksRefills) {
  const auto topo = test_topo();
  const numa::Partitioner parts(1000, 2, topo);
  Scheduler sched(2, topo, /*bind=*/true, GetParam());
  for (int round = 0; round < 2; ++round) {
    sched.begin_chunks(1000, 128, &parts);
    Task task;
    index_t total = 0;
    while (sched.next_chunk(0, task) || sched.next_chunk(1, task))
      total += task.size();
    EXPECT_EQ(total, 1000u);
  }
}

TEST_P(PolicyTest, ConcurrentDrainCoversEverything) {
  const auto topo = test_topo();
  const int T = 4;
  const index_t n = 100000;
  const numa::Partitioner parts(n, T, topo);
  Scheduler sched(T, topo, /*bind=*/true, GetParam());
  sched.begin_chunks(n, 128, &parts);
  std::vector<std::atomic<int>> seen(n);
  sched.run([&](int tid) {
    Task task;
    while (sched.next_chunk(tid, task))
      for (index_t r = task.begin; r < task.end; ++r)
        ++seen[static_cast<std::size_t>(r)];
  });
  for (index_t r = 0; r < n; ++r)
    ASSERT_EQ(seen[static_cast<std::size_t>(r)].load(), 1) << "row " << r;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(SchedPolicy::kNumaAware,
                                           SchedPolicy::kFifo,
                                           SchedPolicy::kStatic),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) ==
                                          "numa-aware"
                                      ? "NumaAware"
                                  : to_string(info.param) == std::string("fifo")
                                      ? "Fifo"
                                      : "Static";
                         });

TEST(Scheduler, StaticPolicyNeverSteals) {
  const auto topo = test_topo();
  const numa::Partitioner parts(1000, 4, topo);
  Scheduler sched(4, topo, /*bind=*/true, SchedPolicy::kStatic);
  sched.begin_chunks(1000, 64, &parts);
  Task task;
  // Thread 0 drains its own share, then must get nothing even though the
  // other shares are full.
  while (sched.next_chunk(0, task)) {
    EXPECT_EQ(task.home_thread, 0);
  }
  EXPECT_FALSE(sched.next_chunk(0, task));
  EXPECT_TRUE(sched.next_chunk(1, task));  // other shares untouched
  EXPECT_EQ(sched.stats(0).same_node, 0u);
  EXPECT_EQ(sched.stats(0).remote_node, 0u);
}

TEST(Scheduler, NumaAwareRebalancesWithinNodeFirst) {
  // 4 threads over 2 nodes: threads 0,2 -> node0; 1,3 -> node1. Thread 0
  // shares a deque with thread 2: after its own chunks it takes thread 2's
  // (same-node), and only then steals from node 1 (remote).
  const auto topo = test_topo();
  const numa::Partitioner parts(4096, 4, topo);
  Scheduler sched(4, topo, /*bind=*/true, SchedPolicy::kNumaAware);
  sched.begin_chunks(4096, 64, &parts);
  Task task;
  bool seen_remote = false;
  while (sched.next_chunk(0, task)) {
    if (task.home_node != 0) {
      seen_remote = true;
    } else {
      // No same-node chunk may be claimed after the first remote steal:
      // the own-node deque is exhausted before any cross-node theft.
      EXPECT_FALSE(seen_remote) << "same-node chunk after a remote steal";
    }
  }
  const StealStats stats = sched.stats(0);
  EXPECT_GT(stats.own, 0u);
  EXPECT_GT(stats.same_node, 0u);  // thread 2's chunks, same deque
  EXPECT_GT(stats.remote_node, 0u);
  EXPECT_TRUE(seen_remote);
}

TEST(Scheduler, RemoteStealsTakeTheBackOfTheVictimDeque) {
  // Victims lose their *last* chunks first, preserving the front (the rows
  // nearest the victim's current working set).
  const auto topo = test_topo();
  const numa::Partitioner parts(4096, 2, topo);  // threads 0->n0, 1->n1
  Scheduler sched(2, topo, /*bind=*/true, SchedPolicy::kNumaAware);
  sched.begin_chunks(4096, 64, &parts);
  Task task;
  // Thread 0 steals one chunk from node 1 after draining node 0: it must be
  // node 1's highest chunk id.
  std::uint32_t last_own = 0;
  while (sched.next_chunk(0, task) && task.home_node == 0)
    last_own = task.chunk;
  (void)last_own;
  EXPECT_EQ(task.home_node, 1);
  EXPECT_EQ(task.chunk, 63u);  // 4096/64 = 64 chunks; node1 owns the tail
}

TEST(Scheduler, FifoIsOneSharedQueue) {
  const auto topo = test_topo();
  const numa::Partitioner parts(4096, 4, topo);
  Scheduler sched(4, topo, /*bind=*/true, SchedPolicy::kFifo);
  sched.begin_chunks(4096, 64, &parts);
  Task task;
  // A single consumer sees every chunk in ascending order regardless of
  // home node — the flat-pool model.
  std::uint32_t expect = 0;
  while (sched.next_chunk(3, task)) EXPECT_EQ(task.chunk, expect++);
  EXPECT_EQ(expect, 64u);
}

TEST(Scheduler, TaskSizeRespected) {
  const auto topo = test_topo();
  const numa::Partitioner parts(1000, 1, topo);
  Scheduler sched(1, topo, /*bind=*/true, SchedPolicy::kStatic);
  sched.begin_chunks(1000, 300, &parts);
  Task task;
  std::vector<index_t> sizes;
  while (sched.next_chunk(0, task)) sizes.push_back(task.size());
  ASSERT_EQ(sizes.size(), 4u);  // 300+300+300+100
  EXPECT_EQ(sizes[3], 100u);
}

TEST(NodeDistance, SimulatedRingMetric) {
  const auto topo = numa::Topology::simulated(4, 8);
  const numa::NodeDistance dist(topo);
  EXPECT_EQ(dist(0, 0), 10);
  EXPECT_EQ(dist(0, 1), 21);  // 1 hop
  EXPECT_EQ(dist(0, 2), 26);  // 2 hops (opposite corner)
  EXPECT_EQ(dist(0, 3), 21);  // 1 hop the other way round the ring
  // Victims ascend by distance; ties break toward the lower node id.
  EXPECT_EQ(dist.victim_order(0), (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(dist.victim_order(2), (std::vector<int>{1, 3, 0}));
}

TEST(Scheduler, StealsFromCheapestRemoteNodeFirst) {
  // 4 nodes, 4 threads. Thread 0 (node 0) drains its own node, then must
  // visit node 1 (distance 21) before node 2 (distance 26).
  const auto topo = numa::Topology::simulated(4, 8);
  const numa::Partitioner parts(4096, 4, topo);
  Scheduler sched(4, topo, /*bind=*/true, SchedPolicy::kNumaAware);
  sched.begin_chunks(4096, 64, &parts);
  Task task;
  std::vector<int> visit_order;
  while (sched.next_chunk(0, task))
    if (visit_order.empty() || visit_order.back() != task.home_node)
      visit_order.push_back(task.home_node);
  EXPECT_EQ(visit_order, (std::vector<int>{0, 1, 3, 2}));
}

TEST(TreeReduceFixed, AssociationDependsOnlyOnSlotCount) {
  // Fold 13 FP slots under several thread counts: the merge tree is fixed
  // by the count, so the result must be bitwise identical.
  const std::size_t count = 13;
  std::vector<double> reference;
  for (int T : {1, 2, 5, 8}) {
    std::vector<double> slots(count);
    for (std::size_t i = 0; i < count; ++i)
      slots[i] = 1.0 / static_cast<double>(i + 3);  // not exactly summable
    Barrier barrier(T);
    Scheduler sched(T, test_topo());
    sched.run([&](int tid) {
      tree_reduce_fixed(tid, T, count, barrier,
                        [&](std::size_t dst, std::size_t src) {
                          slots[dst] += slots[src];
                        });
    });
    if (reference.empty())
      reference.push_back(slots[0]);
    else
      EXPECT_EQ(reference[0], slots[0]) << "T=" << T;  // bitwise
  }
}

TEST(Scheduler, ParallelForBodyRunsOncePerChunk) {
  const auto topo = test_topo();
  Scheduler sched(4, topo);
  const index_t n = 10000;
  const index_t ts = 128;
  std::vector<std::atomic<int>> runs(
      static_cast<std::size_t>(Scheduler::num_chunks(n, ts)));
  sched.parallel_for(n, ts, nullptr, [&](int, const Task& task) {
    ++runs[task.chunk];
    EXPECT_EQ(task.begin, static_cast<index_t>(task.chunk) * ts);
  });
  for (auto& r : runs) EXPECT_EQ(r.load(), 1);

  // A one-chunk grid runs inline: exactly once, on the calling thread,
  // claimed as its home thread. The home is not always thread 0: without a
  // partitioner it is T-1, and a partitioner gives row 0 to thread 1 at
  // n=2, T=3. Under kStatic only the home thread may claim it.
  const std::thread::id caller = std::this_thread::get_id();
  for (const SchedPolicy policy : {SchedPolicy::kNumaAware,
                                   SchedPolicy::kFifo, SchedPolicy::kStatic}) {
    for (const int T : {1, 2, 3}) {
      Scheduler s(T, topo, /*bind=*/true, policy);
      for (const bool partitioned : {false, true}) {
        for (const index_t rows : {index_t{1}, index_t{2}, index_t{64}}) {
          const std::string what = std::string(to_string(policy)) +
                                   " T=" + std::to_string(T) +
                                   " parts=" + std::to_string(partitioned) +
                                   " n=" + std::to_string(rows);
          const numa::Partitioner parts(rows, T, topo);
          s.reset_stats();
          int calls = 0;
          int home = -1;
          s.parallel_for(rows, 0, partitioned ? &parts : nullptr,
                         [&](int tid, const Task& task) {
                           ++calls;
                           home = task.home_thread;
                           EXPECT_EQ(std::this_thread::get_id(), caller)
                               << what;
                           EXPECT_EQ(tid, task.home_thread) << what;
                           EXPECT_EQ(task.size(), rows) << what;
                         });
          ASSERT_EQ(calls, 1) << what;
          EXPECT_EQ(home, partitioned ? parts.thread_of_row(0) : T - 1)
              << what;
          EXPECT_EQ(s.stats(home).own, 1u) << what;
          EXPECT_EQ(s.total_stats().total(), 1u) << what;
        }
      }
      // Two chunks still fork: every body runs on a worker.
      std::atomic<int> calls{0};
      std::atomic<int> on_caller{0};
      s.parallel_for(128, 64, nullptr, [&](int, const Task&) {
        ++calls;
        if (std::this_thread::get_id() == caller) ++on_caller;
      });
      EXPECT_EQ(calls.load(), 2) << to_string(policy) << " T=" << T;
      EXPECT_EQ(on_caller.load(), 0) << to_string(policy) << " T=" << T;
    }
  }
}

}  // namespace
}  // namespace knor::sched
