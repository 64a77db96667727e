// NUMA-partitioned work-stealing scheduler (paper §5.2, Figures 1-2 and 5).
//
// This replaces the seed's flat thread pool + per-thread mutex queue with a
// single substrate that owns both the workers and the work:
//
//   * One lock-free deque of chunk ids per NUMA node. A chunk is a fixed
//     [begin, end) row range of the global index space; the chunk grid is a
//     pure function of (n, task_size) — independent of the thread count —
//     which is what lets per-chunk reductions stay bitwise identical across
//     thread counts and steal schedules (see DESIGN.md §7).
//   * Hierarchical acquisition: workers pop their own node's deque from the
//     FRONT (ascending chunk ids -> sequential row access), and steal from
//     the BACK of remote deques (the work farthest from the victim's working
//     set), visiting victims in ascending interconnect distance order
//     (numa::NodeDistance, SLIT-style).
//   * Adaptive task sizing: task_size = 0 resolves to a size targeting a
//     fixed chunk count (kAutoChunkTarget), clamped to the paper's 8192-row
//     default; explicit sizes (the abl_task_size knob) are honored but
//     floored so the grid never exceeds kMaxChunks accumulator slots.
//   * Reusable parallel APIs: run() (one call per worker) and
//     parallel_for() (chunked + stolen). Reductions are per chunk, folded
//     with sched::tree_reduce_fixed (core/chunk_accum.hpp).
//
// Scheduling policies compared by the Figure 5 bench:
//   * kNumaAware — per-node deques + hierarchical stealing (knor).
//   * kFifo     — one flat shared queue, NUMA-oblivious: the "flat thread
//                 pool" model of the frameworks the paper benchmarks against.
//   * kStatic   — per-thread pre-assignment, no stealing at all.
// All three produce bitwise-identical results for the engines built on the
// chunk API; only the execution schedule (and therefore time) differs.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "numa/cost_model.hpp"
#include "numa/partitioner.hpp"
#include "numa/topology.hpp"
#include "sched/barrier.hpp"

namespace knor::sched {

enum class SchedPolicy { kNumaAware, kFifo, kStatic };

const char* to_string(SchedPolicy p);

/// A claimed unit of work: rows [begin, end) of chunk `chunk`.
struct Task {
  index_t begin = 0;
  index_t end = 0;             ///< exclusive
  std::uint32_t chunk = 0;     ///< index in the global chunk grid
  int home_thread = -1;        ///< thread whose static share this chunk is
  int home_node = -1;          ///< NUMA node owning the chunk's rows
  index_t size() const { return end - begin; }
};

struct StealStats {
  std::uint64_t own = 0;          ///< chunks from the caller's own share
  std::uint64_t same_node = 0;    ///< intra-node rebalancing (same deque)
  std::uint64_t remote_node = 0;  ///< cross-node steals
  std::uint64_t total() const { return own + same_node + remote_node; }
};

class Scheduler {
 public:
  /// The paper's task size (§8.4): 8192 points per task.
  static constexpr index_t kPaperTaskSize = 8192;
  /// Adaptive sizing targets this many chunks (thread-count independent).
  static constexpr index_t kAutoChunkTarget = 256;
  /// Hard ceiling on the chunk grid: bounds per-chunk accumulator memory.
  static constexpr index_t kMaxChunks = 4096;
  static constexpr index_t kMinTaskSize = 64;

  /// Task size for `n` rows when the knob is 0 (adaptive): aim for
  /// kAutoChunkTarget chunks, clamped to [kMinTaskSize, kPaperTaskSize].
  /// Depends on n only, never on the thread count.
  static index_t auto_task_size(index_t n);

  /// Resolve the Options::task_size knob: 0 -> auto_task_size(n); explicit
  /// sizes are floored so ceil(n / size) <= kMaxChunks.
  static index_t resolve_task_size(index_t n, index_t requested);

  static index_t num_chunks(index_t n, index_t task_size) {
    return task_size == 0 ? 0 : (n + task_size - 1) / task_size;
  }

  /// Spawn `threads` workers over `topo` (thread t on node t % N, matching
  /// numa::Partitioner). `bind` pins each worker to its node's CPUs.
  Scheduler(int threads, const numa::Topology& topo, bool bind = true,
            SchedPolicy policy = SchedPolicy::kNumaAware);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }
  const numa::Topology& topology() const { return topo_; }
  SchedPolicy policy() const { return policy_; }
  int node_of_thread(int t) const { return t % topo_.num_nodes(); }
  const numa::NodeDistance& distances() const { return distance_; }

  /// Barrier over all workers, reusable across phases; only valid inside
  /// fn passed to run().
  Barrier& barrier() { return *barrier_; }

  /// Run fn(thread_id) on every worker; blocks until all complete.
  /// Exceptions thrown by workers are captured and the first is rethrown.
  void run(const std::function<void(int)>& fn);

  // --- chunk phase API ------------------------------------------------------
  // Driver-side begin_chunks() lays the chunk grid over [0, n) and fills the
  // policy's deques; workers then drain via next_chunk(tid, task). When a
  // Partitioner is supplied, a chunk's home thread/node follow the data
  // placement (thread_of_row of its first row); otherwise chunks are dealt
  // to threads in contiguous blocks.

  /// Not thread-safe with concurrent next_chunk().
  void begin_chunks(index_t n, index_t task_size,
                    const numa::Partitioner* parts = nullptr);
  index_t task_size() const { return task_size_; }
  index_t chunk_count() const { return static_cast<index_t>(home_.size()); }

  /// Acquire the next chunk for `thread`: own deque front first, then steal
  /// from the back of remote deques in ascending node distance. Returns
  /// false when all deques are drained. Thread-safe.
  bool next_chunk(int thread, Task& out);

  /// Chunked work-stealing loop: body(tid, task) over [0, n). A grid of one
  /// chunk runs inline on the calling thread, as tid == task.home_thread.
  void parallel_for(index_t n, index_t task_size,
                    const numa::Partitioner* parts,
                    const std::function<void(int, const Task&)>& body);

  /// Per-thread acquisition statistics since the last reset_stats().
  StealStats stats(int thread) const;
  StealStats total_stats() const;
  void reset_stats();

 private:
  /// A deque of chunk ids claimed lock-free from either end: the 64-bit
  /// `range` packs (front index << 32 | back index); a CAS moves one end
  /// inward. Indices only ever move inward between begin_chunks() calls
  /// (which happen while workers are quiescent), so there is no ABA.
  struct alignas(kCacheLine) ClaimQueue {
    std::vector<std::uint32_t> chunks;
    std::atomic<std::uint64_t> range{0};

    void fill_done() {
      range.store(static_cast<std::uint64_t>(chunks.size()),
                  std::memory_order_release);
    }
    bool pop_front(std::uint32_t& out) {
      std::uint64_t r = range.load(std::memory_order_acquire);
      for (;;) {
        const auto front = static_cast<std::uint32_t>(r >> 32);
        const auto back = static_cast<std::uint32_t>(r);
        if (front >= back) return false;
        const std::uint64_t next =
            (static_cast<std::uint64_t>(front + 1) << 32) | back;
        if (range.compare_exchange_weak(r, next, std::memory_order_acq_rel)) {
          out = chunks[front];
          return true;
        }
      }
    }
    bool pop_back(std::uint32_t& out) {
      std::uint64_t r = range.load(std::memory_order_acquire);
      for (;;) {
        const auto front = static_cast<std::uint32_t>(r >> 32);
        const auto back = static_cast<std::uint32_t>(r);
        if (front >= back) return false;
        const std::uint64_t next =
            (static_cast<std::uint64_t>(front) << 32) | (back - 1);
        if (range.compare_exchange_weak(r, next, std::memory_order_acq_rel)) {
          out = chunks[back - 1];
          return true;
        }
      }
    }
  };
  struct alignas(kCacheLine) ThreadStats {
    StealStats s;
  };

  void worker_loop(int id);
  void make_task(std::uint32_t chunk, int thread, Task& out);

  numa::Topology topo_;
  SchedPolicy policy_;
  bool bind_;
  numa::NodeDistance distance_;
  std::vector<std::thread> workers_;
  std::unique_ptr<Barrier> barrier_;

  // Work state (rebuilt by begin_chunks).
  index_t n_ = 0;
  index_t task_size_ = 0;
  std::vector<int> home_;  ///< chunk -> home thread
  std::vector<std::unique_ptr<ClaimQueue>> queues_;
  std::vector<int> own_queue_;                  ///< thread -> queue index
  std::vector<std::vector<int>> steal_order_;   ///< thread -> victim queues
  std::vector<ThreadStats> stats_;

  // run() machinery (long-lived workers, one job at a time).
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace knor::sched
