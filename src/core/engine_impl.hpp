// The ||Lloyd's parallel engine (paper Algorithm 1 + §5 optimizations): the
// one pruned-engine loop, templated over a row source so the same code
// drives knori, every knord rank and knors:
//   * MemorySource<NumaData> — rows partitioned across NUMA-node-local
//     blocks (knori, knord),
//   * MemorySource<FlatData> — one contiguous NUMA-oblivious allocation
//     (the Figure 4 baseline),
//   * sem::SemSource — rows in a .kmat page file, served by the row cache
//     or fetched through the page cache (knors, src/sem/sem_kmeans.cpp).
//
// Row-source concept (DESIGN.md §7). `skip(r)` is the loop's clause-1 step
// for row r (true: its assignment stands, the row is done); `stands(r)` is
// the same test without its writes; `visit(r, v)` is the loop's row step,
// `v` the row's data:
//   void begin_iteration(int it);  // driver, before iteration it (0-based)
//   void prologue(int tid, stands); // every worker, before its first claim
//                                   // of the iteration; may barrier, so
//                                   // must not throw
//   void for_chunk(int tid, const sched::Task&, Counters&, skip, visit);
//       // skip(r) for every row of the task, then visit(r, v) for each row
//       // skip rejected, in row order; no indirect call per row; may throw
//       // (the loop rethrows after the iteration's barriers)
//   void end_iteration();           // driver, after the super-phase's fold
//   void for_energy(int tid, const sched::Task&, visit);  // every row
//   void end_run();                 // driver, once the result is complete,
//                                   // before its counters publish
//
// One Scheduler::run per iteration executes the super-phase: workers drain
// the NUMA-partitioned work-stealing chunk queues (nearest-centroid + local
// accumulation), hit the single global barrier, then fold the per-CHUNK
// accumulators with a fixed merge tree — the structure of Algorithm 1 with
// the reduction re-keyed from threads to chunks.
//
// Determinism under stealing (DESIGN.md §7): the chunk grid is a pure
// function of (n, task_size); chunk c's accumulator receives exactly chunk
// c's rows in row order no matter which thread ends up processing it, and
// the fold's association is fixed by the chunk count — so centroids,
// assignments and iteration counts are bitwise identical across runs,
// scheduling policies, steal schedules, thread counts and row sources.
#pragma once

#include <cmath>
#include <cstring>
#include <exception>
#include <type_traits>
#include <vector>

#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/chunk_accum.hpp"
#include "core/kernels/simd.hpp"
#include "core/kmeans_types.hpp"
#include "core/local_centroids.hpp"
#include "core/mti.hpp"
#include "core/run_metrics.hpp"
#include "numa/cost_model.hpp"
#include "numa/partitioner.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"

namespace knor::detail {

/// Flat, NUMA-oblivious data adapter: everything lives on node 0 (where a
/// single malloc/first-touch put it).
struct FlatData {
  ConstMatrixView m;
  const value_t* row(index_t r) const { return m.row(r); }
  int node_of_row(index_t) const { return 0; }
};

struct alignas(kCacheLine) PerThread {
  Counters counters;
  std::uint64_t changed = 0;
  double busy_s = 0.0;  ///< CPU time in super-phases, whole run
  // MTI work buffers, k entries each when pruning: a row's clause-2
  // survivors and their squared distances from one dist_sq_list call.
  std::vector<cluster_t> cand;
  std::vector<value_t> cand_sq;
};

/// The in-memory row source over a Data adapter (NumaData or FlatData,
/// each with `const value_t* row(index_t r) const` and `int
/// node_of_row(index_t r) const`): a chunk's rows read in place. No
/// per-iteration state.
template <typename Data>
struct MemorySource {
  const Data& data;
  const numa::Partitioner& parts;
  index_t d;

  void begin_iteration(int) {}
  template <typename Stands>
  void prologue(int, Stands&&) {}
  template <typename Skip, typename Visit>
  void for_chunk(int tid, const sched::Task& task, Counters& cnt, Skip&& skip,
                 Visit&& visit) const {
    walk(tid, task, &cnt, [&](index_t r, const value_t* v) {
      if (!skip(r)) visit(r, v);
    });
  }
  void end_iteration() {}
  template <typename Visit>
  void for_energy(int tid, const sched::Task& task, Visit&& visit) const {
    walk(tid, task, nullptr, visit);
  }
  void end_run() {}

  /// Walk the task's rows in segments that stay inside one thread block,
  /// so the base pointer and the local/remote classification hoist out of
  /// the per-row loop (chunks can straddle block boundaries now that the
  /// chunk grid is laid over the global row space). `cnt` == nullptr skips
  /// both the locality accounting and the emulated remote penalty (the
  /// final energy pass is not part of the iteration-time model).
  template <typename PerRow>
  void walk(int tid, const sched::Task& task, Counters* cnt,
            PerRow&& per_row) const {
    const int my_node = parts.node_of_thread(tid);
    index_t r = task.begin;
    while (r < task.end) {
      const int home = parts.thread_of_row(r);
      const index_t seg_end = std::min(task.end, parts.thread_rows(home).end);
      const value_t* base = data.row(r);
      const bool local = data.node_of_row(r) == my_node;
      if (cnt != nullptr) {
        if (local)
          cnt->local_accesses += seg_end - r;
        else
          cnt->remote_accesses += seg_end - r;
      }
      for (index_t i = r; i < seg_end; ++i) {
        if (cnt != nullptr && !local) numa::RemotePenalty::charge();
        per_row(i, base + static_cast<std::size_t>(i - r) * d);
      }
      r = seg_end;
    }
  }
};

/// `src` is the row source (the concept at the top of this file).
///
/// `reducer` (nullable) is the cross-node hook: when set, the merged
/// per-iteration accumulator plus the changed-count are allreduced across
/// ranks in one collective before finalization, and the final energy is
/// allreduced too — every rank then finalizes identical global centroids
/// from its own shard's contribution. Single-node callers pass nullptr.
///
/// `resume` (nullable) restarts the loop at a checkpointed iteration
/// boundary: `initial` must then be the checkpointed centroids, and the
/// restored assignments/pre-loosened bounds/global sums make the first
/// resumed iteration bitwise identical to the same iteration of the
/// uninterrupted run (see ResumeState). `observer` (nullable) is called at
/// every iteration boundary but the converging one and may stop the run or
/// throw (DESIGN.md §13).
template <typename Source>
Result run_parallel_lloyd(Source& src, index_t n, index_t d,
                          const Options& opts, DenseMatrix initial,
                          sched::Scheduler& sched,
                          const numa::Partitioner& parts,
                          GlobalReducer* reducer = nullptr,
                          const ResumeState* resume = nullptr,
                          IterObserver* observer = nullptr) {
  const int T = sched.threads();
  const int k = opts.k;
  // Per-run registry slice (DESIGN.md §10): diff a snapshot around the run
  // and attach it to the Result. Taken before the kernel table below is
  // resolved, so the slice counts the run's kernels.dispatch.<isa>.
  // Skipped when a reducer is present — knord ranks run concurrently in
  // one process, so a per-rank diff would interleave with its siblings;
  // dist::kmeans attaches the cluster-level diff instead.
  obs::Registry& reg = obs::Registry::global();
  obs::Snapshot obs_before;
  if (reducer == nullptr) obs_before = reg.snapshot();

  // One ISA for the whole run, resolved from opts rather than the
  // process-global dispatch (concurrent runs with different --simd must not
  // retarget each other): every distance below (pruned candidate list,
  // blocked full scan, energy pass) goes through the same kernel table, so
  // the blocked/per-centroid bitwise-equality contract of kernels/simd.hpp
  // keeps pruned and unpruned paths in exact agreement.
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  const index_t task_size =
      sched::Scheduler::resolve_task_size(n, opts.task_size);
  const auto chunks = static_cast<std::size_t>(
      sched::Scheduler::num_chunks(n, task_size));

  const bool resumed = resume != nullptr && resume->iteration > 0;
  if (resumed) {
    if (resume->assignments.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument(
          "run_parallel_lloyd: resume assignments size mismatch");
    if (opts.prune &&
        resume->upper_bounds.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument(
          "run_parallel_lloyd: resume lacks MTI bounds but pruning is on");
    if (opts.prune &&
        (resume->sums.rows() != static_cast<index_t>(k) ||
         resume->sums.cols() != d ||
         resume->counts.size() != static_cast<std::size_t>(k)))
      throw std::invalid_argument(
          "run_parallel_lloyd: resume lacks global sums but pruning is on");
  }

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  if (resumed) res.assignments = resume->assignments;

  DenseMatrix cur = std::move(initial);
  DenseMatrix next(static_cast<index_t>(k), d);
  DenseMatrix prev(static_cast<index_t>(k), d);

  MtiState mti;
  if (opts.prune) {
    mti = MtiState(n, k);
    // prev == empty: drift 0. Resumed bounds were pre-loosened against the
    // checkpointed centroids (now `cur`), so drift 0 keeps them valid —
    // the same contract as the SEM resume path.
    mti.prepare(DenseMatrix{}, cur, K);
    if (resumed)
      for (index_t i = 0; i < n; ++i)
        mti.set_ub(i, resume->upper_bounds[static_cast<std::size_t>(i)]);
  }

  // Padded, 64-byte-aligned centroid tile for the blocked full-scan
  // kernel; repacked from `cur` before every iteration (driver thread,
  // outside the super-phase, so workers only ever read it).
  kernels::CentroidPack pack;

  // Accumulation strategy (see LocalCentroids vs SignedCentroids):
  //  * pruning off — rebuild per-chunk sums from scratch each iteration
  //    (Algorithm 1 verbatim; algorithmically identical to the frameworks).
  //  * pruning on — persistent global sums/counts updated by per-chunk
  //    membership *deltas*, so a clause-1-skipped point costs nothing at
  //    all (this is what makes the skip profitable at small d, and is the
  //    in-memory analogue of knors's "no I/O request"); a fully-skipped
  //    chunk never even clears its slot (ChunkAccum's dirty bit).
  const bool prune = opts.prune;
  ChunkAccum<LocalCentroids> locals(prune ? 0 : chunks, k, d);
  ChunkAccum<SignedCentroids> deltas(prune ? chunks : 0, k, d);
  DenseMatrix sums;
  std::vector<std::int64_t> counts;
  if (prune) {
    sums = DenseMatrix(static_cast<index_t>(k), d);
    counts.assign(static_cast<std::size_t>(k), 0);
    if (resumed) {
      // The persistent accumulators are global (post-allreduce) state, so
      // restoring them replicated keeps every participant's copy identical.
      sums = resume->sums;
      counts = resume->counts;
    }
  }

  std::vector<PerThread> per_thread(static_cast<std::size_t>(T));
  if (prune)
    for (auto& pt : per_thread) {
      pt.cand.resize(static_cast<std::size_t>(k));
      pt.cand_sq.resize(static_cast<std::size_t>(k));
    }

  ScopedAlloc mem_chunks("per-chunk-centroids",
                         prune ? deltas.bytes() : locals.bytes());
  ScopedAlloc mem_assign("assignments",
                         res.assignments.size() * sizeof(cluster_t));
  ScopedAlloc mem_mti("mti-state", prune ? mti.bytes() : 0);

  // Clause 1 for row r (DESIGN.md §3): its loosened bound, left in
  // `loosened`, proves the assignment stands this iteration. Writes no
  // state, so a source may decide with `stands` ahead of its chunk walk
  // (knors ranks row-cache admissions with it).
  const auto clause1 = [&](index_t r, value_t& loosened) {
    const cluster_t a = res.assignments[r];
    if (!prune || a == kInvalidCluster) return false;
    loosened = mti.ub(r) + mti.drift(a);
    return mti.clause1(a, loosened);
  };
  const auto stands = [&](index_t r) {
    value_t loosened = 0;
    return clause1(r, loosened);
  };

  // The row step for a row that clause 1 did not settle; `v` is its data
  // and `chunk` selects the deterministic accumulator slot.
  const auto process_point = [&](PerThread& pt, std::uint32_t chunk,
                                 index_t r, const value_t* v) {
    Counters& cnt = pt.counters;
    const cluster_t a = res.assignments[r];
    if (prune && a != kInvalidCluster) {
      // Clauses 2 and 3 and the argmin: MTI's one pruned-row routine.
      const value_t loosened = mti.ub(r) + mti.drift(a);
      const auto [best, best_d] = mti.nearest_pruned(
          v, a, loosened, pack, K, pt.cand.data(), pt.cand_sq.data(), cnt);
      if (best != a) {
        ++pt.changed;
        auto& delta = deltas.touch(chunk);
        delta.sub(a, v);
        delta.add(best, v);
      }
      res.assignments[r] = best;
      mti.set_ub(r, best_d);
      return;
    }

    // Full scan: first iteration, or pruning disabled. The blocked kernel
    // streams the point once against the padded centroid tile.
    value_t best_sq = 0;
    const cluster_t best = K.nearest_blocked(v, pack, &best_sq);
    cnt.dist_computations += static_cast<std::uint64_t>(k);
    if (best != a) ++pt.changed;
    res.assignments[r] = best;
    if (prune) {
      // MTI bookkeeping is in true distances: the one sqrt of the scan.
      mti.set_ub(r, std::sqrt(best_sq));
      // First iteration under pruning: every point joins a cluster.
      auto& delta = deltas.touch(chunk);
      if (a == kInvalidCluster) {
        delta.add(best, v);
      } else if (best != a) {
        delta.sub(a, v);
        delta.add(best, v);
      }
    } else {
      locals.touch(chunk).add(best, v);
    }
  };

  const auto iteration = [&](int tid) {
    PerThread& pt = per_thread[static_cast<std::size_t>(tid)];
    const double cpu_start = thread_cpu_seconds();
    pt.changed = 0;
    src.prologue(tid, stands);
    // Clause 1 settles the row: no distance, no accumulate and no touch of
    // its data (in knors, no I/O request).
    const auto skip = [&](index_t r) {
      value_t loosened = 0;
      if (!clause1(r, loosened)) return false;
      mti.set_ub(r, loosened);
      ++pt.counters.clause1_skips;
      return true;
    };
    // A row that fails to load (knors's pread) must not keep this worker
    // from the barriers below, where its siblings would wait forever: the
    // error is kept, the worker still arrives and folds, then rethrows it
    // for Scheduler::run to report.
    std::exception_ptr error;
    try {
      sched::Task task;
      while (sched.next_chunk(tid, task))
        src.for_chunk(tid, task, pt.counters, skip,
                      [&](index_t r, const value_t* v) {
                        process_point(pt, task.chunk, r, v);
                      });
    } catch (...) {
      error = std::current_exception();
    }
    pt.busy_s += thread_cpu_seconds() - cpu_start;
    // The single global barrier of ||Lloyd's, then the fixed-tree fold of
    // the per-chunk accumulators (slot 0 <- everything, chunk order).
    sched.barrier().arrive_and_wait();
    if (prune)
      deltas.fold(tid, T, sched.barrier());
    else
      locals.fold(tid, T, sched.barrier());
    if (error) std::rethrow_exception(error);
  };

  // Convergence is judged on the *global* point count when a reducer is
  // present (every rank sees the same global changed-count, so all ranks
  // stop on the same iteration).
  index_t global_n = n;
  if (reducer != nullptr) {
    double nd = static_cast<double>(n);
    reducer->allreduce(&nd, 1);
    global_n = static_cast<index_t>(nd);
  }
  const auto tol_changes = static_cast<std::uint64_t>(
      opts.tolerance * static_cast<double>(global_n));

  // Wire buffer for the one-collective-per-iteration reduction:
  // k*d sums, then k counts, then the changed-count, all as doubles
  // (counts are integers < 2^53, so the round-trip is exact). The sum
  // pack/unpack memcpys assume the accumulators are doubles too.
  static_assert(std::is_same_v<value_t, double>,
                "the cross-node wire format packs value_t sums as doubles");
  const std::size_t kd = static_cast<std::size_t>(k) * d;
  std::vector<double> wire;
  if (reducer != nullptr) wire.resize(kd + static_cast<std::size_t>(k) + 1);

  const int start_iter =
      resumed ? static_cast<int>(resume->iteration) : 0;
  if (resumed) res.iters = static_cast<std::size_t>(resume->iteration);
  for (int it = start_iter; it < opts.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);
    src.begin_iteration(it);
    sched.begin_chunks(n, task_size, &parts);
    {
      // Driver-side view of the super-phase: workers' nearest-centroid +
      // local accumulation + the per-chunk fold (one trace slice per
      // iteration; per-worker slices would distort the steal schedule).
      obs::Span span_assign("assign");
      sched.run(iteration);
    }
    src.end_iteration();

    std::uint64_t changed = 0;
    for (const auto& pt : per_thread) changed += pt.changed;

    if (reducer != nullptr) {
      obs::Span span_allreduce("allreduce");
      // Pack the merged accumulator (slot 0) + changed, allreduce once,
      // unpack: slot 0 now holds the global accumulator on every rank.
      double* w = wire.data();
      const auto pack = [&](value_t* s, auto* c) {
        std::memcpy(w, s, kd * sizeof(double));
        for (int i = 0; i < k; ++i) w[kd + static_cast<std::size_t>(i)] =
            static_cast<double>(c[i]);
        w[kd + static_cast<std::size_t>(k)] = static_cast<double>(changed);
      };
      const auto unpack = [&](value_t* s, auto* c) {
        std::memcpy(s, w, kd * sizeof(double));
        using count_t = std::remove_reference_t<decltype(c[0])>;
        for (int i = 0; i < k; ++i) c[i] = static_cast<count_t>(
            std::llround(w[kd + static_cast<std::size_t>(i)]));
        changed = static_cast<std::uint64_t>(
            std::llround(w[kd + static_cast<std::size_t>(k)]));
      };
      if (prune)
        pack(deltas.merged().sums_data(), deltas.merged().counts_data());
      else
        pack(locals.merged().sums_data(), locals.merged().counts_data());
      reducer->allreduce(wire.data(), wire.size());
      if (prune)
        unpack(deltas.merged().sums_data(), deltas.merged().counts_data());
      else
        unpack(locals.merged().sums_data(), locals.merged().counts_data());
    }

    // Finalize next centroids from the merged accumulator (slot 0).
    obs::Span span_update("update");
    std::memcpy(prev.data(), cur.data(), cur.size() * sizeof(value_t));
    if (prune) {
      deltas.merged().apply_to(sums.data(), counts.data());
      res.cluster_sizes =
          finalize_sums(sums.data(), counts.data(), k, d, next, cur);
    } else {
      res.cluster_sizes = locals.merged().finalize_into(next, cur);
    }
    if (prune)
      deltas.next_iteration();
    else
      locals.next_iteration();
    std::swap(cur, next);
    if (prune) mti.prepare(prev, cur, K);

    res.iter_times.record(timer.elapsed());
    ++res.iters;
    if (changed <= tol_changes) {
      res.converged = true;
      break;
    }
    if (observer != nullptr) {
      // Boundary hook (checkpointing / fault injection / elastic stop).
      // Placed after the convergence break: a finished run has nothing to
      // checkpoint, and with a reducer present every rank computed the same
      // global `changed`, so all ranks reach this hook in lockstep.
      IterationView view;
      view.iteration = static_cast<std::uint64_t>(res.iters);
      view.changed = changed;
      view.centroids = &cur;
      view.assignments = &res.assignments;
      view.mti = prune ? &mti : nullptr;
      view.sums = prune ? &sums : nullptr;
      view.counts = prune ? &counts : nullptr;
      if (!observer->on_iteration(view)) break;
    }
  }

  // Steal statistics before the energy pass reuses the queues.
  const sched::StealStats steals = sched.total_stats();

  // Exact final energy: one full pass (pruned iterations skip distances, so
  // energy cannot be accumulated during the main loop). Per-chunk partial
  // energies summed in chunk order keep it deterministic across T too.
  {
    obs::Span span_energy("energy");
    std::vector<double> chunk_energy(chunks, 0.0);
    sched.parallel_for(n, task_size, &parts,
                       [&](int tid, const sched::Task& task) {
      double e = 0.0;
      src.for_energy(tid, task, [&](index_t r, const value_t* v) {
        e += K.dist_sq(v, cur.row(res.assignments[r]), d);
      });
      chunk_energy[task.chunk] = e;
    });
    for (const double e : chunk_energy) res.energy += e;
  }

  for (const auto& pt : per_thread) {
    res.counters += pt.counters;
    res.thread_busy_s.push_back(pt.busy_s);
  }
  if (reducer != nullptr) reducer->allreduce(&res.energy, 1);
  res.counters.tasks_own = steals.own;
  res.counters.tasks_same_node = steals.same_node;
  res.counters.tasks_remote_node = steals.remote_node;

  src.end_run();
  // Publish the run's counters into the global registry — bulk adds at run
  // end through the shared mapping (core/run_metrics.hpp), so the hot loops
  // above keep their plain per-thread structs and --metrics agrees with
  // Result::counters by construction. The registry slice attaches only for
  // single-run processes; knord ranks publish without attaching (their
  // sibling ranks share the registry) and dist::kmeans diffs cluster-wide.
  publish_run_counters(res);
  if (reducer == nullptr) res.metrics = obs::diff(obs_before, reg.snapshot());

  res.centroids = std::move(cur);
  return res;
}

}  // namespace knor::detail
