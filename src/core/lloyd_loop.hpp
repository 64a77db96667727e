// The full-scan Lloyd skeleton (DESIGN.md §7, "The full-scan skeleton"):
// one copy of Algorithm 1's iteration for the engines that recompute every
// row's cluster each iteration — gemm_kmeans, elkan_ti, spherical_kmeans
// and seeded_kmeans. The engine supplies only its assignment step; the loop
// owns topology and thread resolution, the partitioner and scheduler, the
// per-chunk accumulators and their fixed-tree fold, busy time, the update,
// the convergence test, the final energy and the run's metrics.
//
// Step concept:
//   void begin(const DenseMatrix& cur);
//       Driver thread, before each super-phase (pack centroids, c2c, ...).
//       Its CPU time is Result::driver_serial_s.
//   void assign(int tid, const sched::Task& task,
//               const std::vector<cluster_t>& assignments, cluster_t* best,
//               Counters& cnt);
//       Worker `tid`: best[i] becomes row task.begin + i's cluster.
//       `assignments` still holds the previous iteration's (kInvalidCluster
//       on the first); `cnt` is the worker's own counters.
//   void end(const DenseMatrix& prev, DenseMatrix& next);
//       Driver, once this iteration's means are in `next`.
//   double energy(const value_t* row, const value_t* centroid) const;
//       One row's term of Result::energy.
//
// Determinism: the loop walks a chunk's rows in row order after the step
// fills `best`, so chunk c's accumulator receives chunk c's rows in row
// order whichever worker claimed it; the fold's association is fixed by the
// chunk count (§7). The energy stays the serial row-order sum these
// engines always computed: knori's per-chunk partials would move its last
// bits, and table3_serial prints GEMM's energy as a deterministic stat.
#pragma once

#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/chunk_accum.hpp"
#include "core/kmeans_types.hpp"
#include "core/local_centroids.hpp"
#include "core/run_metrics.hpp"
#include "numa/partitioner.hpp"
#include "numa/topology.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"

namespace knor::detail {

class LloydLoop {
 public:
  /// `rows` are the rows accumulated into the means and scored by
  /// Step::energy (spherical passes its unit-normalized copy).
  LloydLoop(ConstMatrixView rows, const Options& opts)
      : rows_(rows),
        opts_(opts),
        topo_(opts.numa_nodes > 0 ? numa::Topology::simulated(opts.numa_nodes)
                                  : numa::Topology::detect()),
        threads_(opts.threads > 0 ? opts.threads : topo_.num_cpus()),
        parts_(rows.rows(), threads_, topo_),
        sched_(threads_, topo_, /*bind=*/opts.numa_aware && opts.numa_bind,
               opts.sched) {}

  int threads() const { return threads_; }

  /// One full run from the initial centroids `cur`.
  template <typename Step>
  Result run(DenseMatrix cur, Step& step) {
    RunMetricsScope metrics;
    const index_t n = rows_.rows();
    const index_t d = rows_.cols();
    const int k = opts_.k;
    const int T = threads_;
    const index_t task_size =
        sched::Scheduler::resolve_task_size(n, opts_.task_size);
    const auto chunks =
        static_cast<std::size_t>(sched::Scheduler::num_chunks(n, task_size));
    ChunkAccum<LocalCentroids> locals(chunks, k, d);
    std::vector<Worker> workers(static_cast<std::size_t>(T));
    for (Worker& w : workers) w.best.resize(task_size);

    Result res;
    res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
    DenseMatrix next(static_cast<index_t>(k), d);
    const auto tol_changes =
        static_cast<std::uint64_t>(opts_.tolerance * static_cast<double>(n));

    const auto iteration = [&](int tid) {
      Worker& w = workers[static_cast<std::size_t>(tid)];
      const double cpu_start = thread_cpu_seconds();
      w.changed = 0;
      sched::Task task;
      while (sched_.next_chunk(tid, task)) {
        step.assign(tid, task, res.assignments, w.best.data(), w.counters);
        LocalCentroids& acc = locals.touch(task.chunk);
        for (index_t r = task.begin; r < task.end; ++r) {
          const cluster_t best = w.best[r - task.begin];
          if (best != res.assignments[r]) ++w.changed;
          res.assignments[r] = best;
          acc.add(best, rows_.row(r));
        }
      }
      w.busy_s += thread_cpu_seconds() - cpu_start;
      sched_.barrier().arrive_and_wait();
      locals.fold(tid, T, sched_.barrier());
    };

    for (int it = 0; it < opts_.max_iters; ++it) {
      WallTimer timer;
      const double driver_start = thread_cpu_seconds();
      step.begin(cur);
      res.driver_serial_s += thread_cpu_seconds() - driver_start;
      sched_.begin_chunks(n, task_size, &parts_);
      {
        obs::Span span_assign("assign");
        sched_.run(iteration);
      }
      std::uint64_t changed = 0;
      for (const Worker& w : workers) changed += w.changed;
      {
        obs::Span span_update("update");
        res.cluster_sizes = locals.merged().finalize_into(next, cur);
        locals.next_iteration();
        step.end(cur, next);
        std::swap(cur, next);
      }
      res.iter_times.record(timer.elapsed());
      ++res.iters;
      if (changed <= tol_changes) {
        res.converged = true;
        break;
      }
    }

    const sched::StealStats steals = sched_.total_stats();
    {
      obs::Span span_energy("energy");
      for (index_t r = 0; r < n; ++r)
        res.energy += step.energy(rows_.row(r), cur.row(res.assignments[r]));
    }
    for (const Worker& w : workers) {
      res.counters += w.counters;
      res.thread_busy_s.push_back(w.busy_s);
    }
    res.counters.tasks_own = steals.own;
    res.counters.tasks_same_node = steals.same_node;
    res.counters.tasks_remote_node = steals.remote_node;
    res.centroids = std::move(cur);
    metrics.finish(res);
    return res;
  }

 private:
  struct alignas(kCacheLine) Worker {
    Counters counters;
    std::uint64_t changed = 0;
    double busy_s = 0.0;  ///< CPU time in super-phases, fold excluded
    std::vector<cluster_t> best;
  };

  ConstMatrixView rows_;
  const Options& opts_;
  numa::Topology topo_;
  int threads_;
  numa::Partitioner parts_;
  sched::Scheduler sched_;
};

}  // namespace knor::detail
