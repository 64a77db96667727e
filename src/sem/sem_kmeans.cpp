#include "sem/sem_kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/logger.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/local_centroids.hpp"
#include "core/mti.hpp"
#include "core/run_metrics.hpp"
#include "numa/partitioner.hpp"
#include "core/chunk_accum.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"
#include "sem/checkpoint.hpp"
#include "sem/io_engine.hpp"
#include "sem/page_cache.hpp"
#include "sem/row_cache.hpp"

namespace knor::sem {

std::uint64_t SemStats::total_requested() const {
  std::uint64_t total = 0;
  for (const auto& it : per_iter) total += it.bytes_requested;
  return total;
}

std::uint64_t SemStats::total_read() const {
  std::uint64_t total = 0;
  for (const auto& it : per_iter) total += it.bytes_read;
  return total;
}

std::uint64_t SemStats::total_device_requests() const {
  std::uint64_t total = 0;
  for (const auto& it : per_iter) total += it.device_requests;
  return total;
}

namespace {

struct alignas(kCacheLine) SemPerThread {
  Counters counters;
  std::uint64_t changed = 0;
  std::uint64_t active = 0;
  std::uint64_t rc_hits = 0;
  // MTI work buffers, k entries each when pruning: a row's clause-2
  // survivors and their squared distances from one dist_sq_list call.
  std::vector<cluster_t> cand;
  std::vector<value_t> cand_sq;
};

/// A chunk's intersection with one home partition's row block.
struct Segment {
  index_t begin;
  index_t end;  ///< exclusive
  int home;
};

/// Where a queued row-cache miss goes once fetched in a refresh iteration:
/// staging slot `rank` of partition `part`, when the rank fits the budget.
struct StageSlot {
  int part;
  std::uint64_t rank;
};

DenseMatrix sem_init_centroids(PageFile& file, IoEngine& engine,
                               const Options& opts) {
  switch (opts.init) {
    case Init::kProvided: {
      if (opts.initial_centroids.rows() != static_cast<index_t>(opts.k) ||
          opts.initial_centroids.cols() != file.d())
        throw std::invalid_argument(
            "sem::kmeans: provided centroids shape mismatch");
      return opts.initial_centroids;
    }
    case Init::kForgy: {
      if (static_cast<index_t>(opts.k) > file.n())
        throw std::invalid_argument("sem::kmeans: k > n");
      auto rows = sample_rows(file.n(), opts.k, opts.seed);
      // fetch_rows wants ascending row ids; remember the permutation.
      std::vector<std::size_t> order(rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return rows[a] < rows[b]; });
      std::vector<index_t> sorted(rows.size());
      for (std::size_t i = 0; i < order.size(); ++i)
        sorted[i] = rows[order[i]];
      DenseMatrix fetched(static_cast<index_t>(opts.k), file.d());
      engine.fetch_rows(sorted, fetched.data());
      DenseMatrix centroids(static_cast<index_t>(opts.k), file.d());
      for (std::size_t i = 0; i < order.size(); ++i)
        std::memcpy(centroids.row(static_cast<index_t>(order[i])),
                    fetched.row(static_cast<index_t>(i)),
                    file.d() * sizeof(value_t));
      return centroids;
    }
    default:
      throw std::invalid_argument(
          "sem::kmeans: init must be kForgy or kProvided");
  }
}

}  // namespace

Result kmeans(const std::string& path, const Options& opts,
              const SemOptions& sem_opts, SemStats* stats) {
  // Per-run registry slice (DESIGN.md §10), diffed around the whole run.
  obs::Registry& reg = obs::Registry::global();
  const obs::Snapshot obs_before = reg.snapshot();
  // Demand-side I/O wait as seen by one worker: each blocking fetch_rows
  // call is one sample. Timing-class, like every latency.
  obs::Histogram& io_wait_us =
      reg.histogram("sem.io_wait_us", obs::Det::kTiming);
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  PageFile file(path, sem_opts.page_size, sem_opts.ssd);
  const index_t n = file.n();
  const index_t d = file.d();
  const int k = opts.k;
  if (k < 1) throw std::invalid_argument("sem::kmeans: k < 1");

  const auto topo = opts.numa_nodes > 0
                        ? numa::Topology::simulated(opts.numa_nodes)
                        : numa::Topology::detect();
  const int T = opts.threads > 0 ? opts.threads : topo.num_cpus();

  PageCache page_cache(sem_opts.page_cache_bytes, sem_opts.page_size, T);
  IoEngine engine(file, page_cache, sem_opts.io_threads,
                  sem_opts.merge_gap_pages);
  const bool use_rc = sem_opts.row_cache_enabled &&
                      sem_opts.row_cache_bytes > 0;
  RowCache row_cache(use_rc ? sem_opts.row_cache_bytes : 1, d, T);
  row_cache.set_update_interval(sem_opts.cache_update_interval);

  ScopedAlloc mem_pc("sem-page-cache",
                     page_cache.capacity_pages() * sem_opts.page_size);
  ScopedAlloc mem_rc("sem-row-cache", use_rc ? row_cache.bytes() : 0);

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  ScopedAlloc mem_assign("assignments",
                         res.assignments.size() * sizeof(cluster_t));

  // Resume from a lightweight checkpoint when requested (recovery path of
  // FlashGraph-style failure tolerance). Falls through to a fresh start
  // when no checkpoint exists yet.
  Checkpoint restored;
  bool resumed = false;
  if (sem_opts.resume && !sem_opts.checkpoint_path.empty() &&
      checkpoint_exists(sem_opts.checkpoint_path)) {
    restored = load_checkpoint(sem_opts.checkpoint_path);
    if (restored.n() != n || restored.k() != k ||
        restored.centroids.cols() != d)
      throw std::runtime_error(
          "sem::kmeans: checkpoint shape does not match dataset/options");
    if (opts.prune && restored.upper_bounds.empty())
      throw std::runtime_error(
          "sem::kmeans: checkpoint lacks MTI state but pruning is on");
    // knors applies membership deltas to persistent sums in both modes, so
    // resuming without them would restart the centroids from zero sums.
    if (restored.sums.rows() != static_cast<index_t>(k) ||
        restored.sums.cols() != d)
      throw std::runtime_error(
          "sem::kmeans: checkpoint lacks the sums block (k x d)");
    if (restored.counts.size() != static_cast<std::size_t>(k))
      throw std::runtime_error(
          "sem::kmeans: checkpoint lacks the counts block (k)");
    resumed = true;
  }

  DenseMatrix cur = resumed ? std::move(restored.centroids)
                            : sem_init_centroids(file, engine, opts);
  DenseMatrix prev(static_cast<index_t>(k), d);
  // Padded centroid tile for the blocked full-scan kernel; repacked on the
  // driver thread before each iteration's super-phase.
  kernels::CentroidPack pack;
  if (resumed) res.assignments = std::move(restored.assignments);

  MtiState mti;
  if (opts.prune) {
    mti = MtiState(n, k);
    // prev == empty: drift 0. Restored bounds were pre-loosened against the
    // checkpointed centroids, so drift 0 keeps them valid.
    mti.prepare(DenseMatrix{}, cur, K);
    if (resumed)
      for (index_t i = 0; i < n; ++i)
        mti.set_ub(i, restored.upper_bounds[static_cast<std::size_t>(i)]);
  }
  ScopedAlloc mem_mti("mti-state", opts.prune ? mti.bytes() : 0);

  // Persistent centroid accumulators (sums/counts), updated by deltas.
  DenseMatrix sums(static_cast<index_t>(k), d);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(k), 0);
  if (resumed) {
    sums = std::move(restored.sums);
    counts = std::move(restored.counts);
  }
  const int start_iter = resumed ? static_cast<int>(restored.iteration) : 0;

  numa::Partitioner parts(n, T, topo);
  sched::Scheduler sched(T, topo, /*bind=*/opts.numa_bind, opts.sched);
  const index_t task_size =
      sched::Scheduler::resolve_task_size(n, opts.task_size);
  const auto chunks =
      static_cast<std::size_t>(sched::Scheduler::num_chunks(n, task_size));

  // Per-chunk membership deltas, applied to the persistent sums in chunk
  // order: like knori, the accumulation is keyed to the (n, task_size)
  // chunk grid rather than to threads, so knors results are bitwise
  // invariant to steal order and thread count (DESIGN.md §7). I/O-
  // completion work stays on the same queues: a worker that finishes its
  // node's chunks steals I/O-feeding chunks from the cheapest remote node.
  ChunkAccum<SignedCentroids> deltas(chunks, k, d);
  std::vector<SemPerThread> per_thread(static_cast<std::size_t>(T));
  if (opts.prune)
    for (auto& pt : per_thread) {
      pt.cand.resize(static_cast<std::size_t>(k));
      pt.cand_sq.resize(static_cast<std::size_t>(k));
    }

  // The chunk grid cut at home-partition boundaries, in row order: chunk c
  // owns segments [chunk_segs[c], chunk_segs[c + 1]). A refresh ranks each
  // partition's active rows through it (DESIGN.md §4): seg_rank[s] is the
  // rank of segment s's first active row, part_active[p] is partition p's
  // active-row count.
  std::vector<Segment> segs;
  std::vector<std::size_t> chunk_segs;
  chunk_segs.reserve(chunks + 1);
  for (index_t begin = 0; begin < n; begin += task_size) {
    chunk_segs.push_back(segs.size());
    const index_t end = std::min(n, begin + task_size);
    for (index_t r = begin; r < end;) {
      const int home = parts.thread_of_row(r);
      const index_t seg_end = std::min(end, parts.thread_rows(home).end);
      segs.push_back({r, seg_end, home});
      r = seg_end;
    }
  }
  chunk_segs.push_back(segs.size());
  std::vector<std::uint64_t> seg_rank(use_rc ? segs.size() : 0);
  std::vector<std::uint64_t> part_active(static_cast<std::size_t>(T));

  const index_t batch_rows =
      sem_opts.io_batch_rows == 0 ? 2048 : sem_opts.io_batch_rows;

  // Per-iteration baselines for the device/engine monotonic counters.
  engine.reset_stats();
  file.reset_stats();
  std::uint64_t last_requested = 0;
  std::uint64_t last_read = 0;
  std::uint64_t last_reqs = 0;
  // Run totals of the workers' per-iteration demand-side tallies.
  std::uint64_t run_active = 0;
  std::uint64_t run_rc_hits = 0;

  const auto tol_changes =
      static_cast<std::uint64_t>(opts.tolerance * static_cast<double>(n));
  bool refresh_mode = false;

  // MTI clause 1 for row r: true when its assignment provably stands this
  // iteration (no I/O, no compute); `loosened` receives the row's loosened
  // bound. Writes nothing, so the refresh count and pass 1 decide alike.
  const auto clause1 = [&](index_t r, value_t& loosened) {
    const cluster_t a = res.assignments[r];
    if (!opts.prune || a == kInvalidCluster) return false;
    loosened = mti.ub(r) + mti.drift(a);
    return mti.clause1(a, loosened);
  };

  // Assign + accumulate for one fetched (or cached) row; `chunk` selects
  // the deterministic accumulator slot of the task being processed.
  const auto process_row = [&](int tid, std::uint32_t chunk, index_t r,
                               const value_t* v) {
    auto& pt = per_thread[static_cast<std::size_t>(tid)];
    const cluster_t a = res.assignments[r];
    cluster_t best;
    value_t best_d;
    if (opts.prune && a != kInvalidCluster) {
      // Clauses 2 and 3 and the argmin: MTI's one pruned-row routine.
      const value_t loosened = mti.ub(r) + mti.drift(a);
      const PrunedNearest won = mti.nearest_pruned(
          v, a, loosened, pack, K, pt.cand.data(), pt.cand_sq.data(),
          pt.counters);
      best = won.best;
      best_d = won.best_d;
    } else {
      value_t best_sq = 0;
      best = K.nearest_blocked(v, pack, &best_sq);
      best_d = std::sqrt(best_sq);  // the MTI upper bound is a true distance
      pt.counters.dist_computations += static_cast<std::uint64_t>(k);
    }
    if (opts.prune) mti.set_ub(r, best_d);
    if (a == kInvalidCluster) {
      deltas.touch(chunk).add(best, v);
      ++pt.changed;
    } else if (best != a) {
      auto& delta = deltas.touch(chunk);
      delta.sub(a, v);
      delta.add(best, v);
      ++pt.changed;
    }
    res.assignments[r] = best;
  };

  const std::uint64_t rows_per_part = row_cache.rows_per_part();
  const auto worker = [&](int tid) {
    auto& pt = per_thread[static_cast<std::size_t>(tid)];
    pt.changed = 0;
    pt.active = 0;
    pt.rc_hits = 0;

    if (refresh_mode) {
      // Rank the active rows before any chunk is claimed: count each
      // segment's clause-1 survivors (a static split of the segments),
      // then one thread turns the counts into first ranks per partition.
      const std::size_t S = segs.size();
      const auto ut = static_cast<std::size_t>(tid);
      const auto uT = static_cast<std::size_t>(T);
      for (std::size_t s = S * ut / uT; s < S * (ut + 1) / uT; ++s) {
        std::uint64_t count = 0;
        value_t loosened;
        for (index_t r = segs[s].begin; r < segs[s].end; ++r)
          if (!clause1(r, loosened)) ++count;
        seg_rank[s] = count;
      }
      sched.barrier().arrive_and_wait();
      if (tid == 0) {
        std::fill(part_active.begin(), part_active.end(), 0);
        for (std::size_t s = 0; s < S; ++s) {
          std::uint64_t& total =
              part_active[static_cast<std::size_t>(segs[s].home)];
          const std::uint64_t count = seg_rank[s];
          seg_rank[s] = total;
          total += count;
        }
      }
      sched.barrier().arrive_and_wait();
    }

    std::vector<index_t> needed;
    std::vector<index_t> to_fetch;
    std::vector<StageSlot> fetch_slots;  // refresh only: one per to_fetch
    std::vector<index_t> fetch_now, fetch_next;
    DenseMatrix buf_now(batch_rows, d), buf_next(batch_rows, d);

    sched::Task task;
    while (sched.next_chunk(tid, task)) {
      // Pass 1 — no data access: clause 1 decides which rows need I/O.
      needed.clear();
      for (index_t r = task.begin; r < task.end; ++r) {
        value_t loosened;
        if (clause1(r, loosened)) {
          mti.set_ub(r, loosened);
          ++pt.counters.clause1_skips;
          continue;  // assignment provably unchanged: no I/O, no compute
        }
        needed.push_back(r);
      }
      pt.active += needed.size();

      // Row-cache pass, one segment at a time: a merge walk of the
      // segment's ascending active rows against its home partition's
      // ascending published ids serves hits now and queues the rest. In a
      // refresh, an active row whose rank fits the budget is staged.
      to_fetch.clear();
      fetch_slots.clear();
      auto next = needed.cbegin();
      for (std::size_t s = chunk_segs[task.chunk];
           s < chunk_segs[task.chunk + 1]; ++s) {
        const Segment& seg = segs[s];
        const RowCache::Slab pub = row_cache.published(seg.home);
        const index_t* const pub_end = pub.ids + pub.size;
        const index_t* hit = std::lower_bound(pub.ids, pub_end, seg.begin);
        std::uint64_t rank = refresh_mode ? seg_rank[s] : 0;
        for (; next != needed.cend() && *next < seg.end; ++next, ++rank) {
          const index_t r = *next;
          while (hit != pub_end && *hit < r) ++hit;
          if (hit != pub_end && *hit == r) {
            const value_t* cached =
                pub.rows + static_cast<std::size_t>(hit - pub.ids) * d;
            ++pt.rc_hits;
            process_row(tid, task.chunk, r, cached);
            if (refresh_mode && rank < rows_per_part)
              row_cache.stage(seg.home, rank, r, cached);
          } else {
            to_fetch.push_back(r);
            if (refresh_mode) fetch_slots.push_back({seg.home, rank});
          }
        }
      }

      // Double-buffered fetch: prefetch batch i+1 while processing batch i.
      std::size_t pos = 0;
      const auto take_batch = [&](std::vector<index_t>& dst) {
        dst.clear();
        const std::size_t end =
            std::min(to_fetch.size(), pos + static_cast<std::size_t>(batch_rows));
        dst.assign(to_fetch.begin() + static_cast<std::ptrdiff_t>(pos),
                   to_fetch.begin() + static_cast<std::ptrdiff_t>(end));
        pos = end;
      };
      std::size_t now_at = 0;  // fetch_now[0]'s index in to_fetch
      take_batch(fetch_now);
      while (!fetch_now.empty()) {
        take_batch(fetch_next);
        IoEngine::Ticket ticket;
        if (!fetch_next.empty()) ticket = engine.prefetch(fetch_next);
        {
          const std::uint64_t t0 = obs::Tracer::now_us();
          engine.fetch_rows(fetch_now, buf_now.data());
          io_wait_us.record(obs::Tracer::now_us() - t0);
        }
        for (std::size_t i = 0; i < fetch_now.size(); ++i) {
          const index_t r = fetch_now[i];
          const value_t* v = buf_now.row(static_cast<index_t>(i));
          process_row(tid, task.chunk, r, v);
          if (refresh_mode) {
            const StageSlot& slot = fetch_slots[now_at + i];
            if (slot.rank < rows_per_part)
              row_cache.stage(slot.part, slot.rank, r, v);
          }
        }
        now_at += fetch_now.size();
        ticket.wait();
        std::swap(fetch_now, fetch_next);
      }
    }
  };

  for (int it = start_iter; it < opts.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);
    refresh_mode = use_rc && row_cache.begin_iteration(it + 1) ==
                                 RowCache::Mode::kRefresh;
    sched.begin_chunks(n, task_size, &parts);
    {
      obs::Span span_assign("assign");
      sched.run(worker);
    }
    if (refresh_mode) row_cache.publish(part_active);
    obs::Span span_update("update");

    // Apply the dirty chunk deltas to the persistent sums in ascending
    // chunk order (fixed, thread-count-independent association), then
    // recompute means.
    for (std::size_t c = 0; c < chunks; ++c)
      if (deltas.dirty(c)) deltas.slot(c).apply_to(sums.data(), counts.data());
    deltas.next_iteration();
    std::memcpy(prev.data(), cur.data(), cur.size() * sizeof(value_t));
    res.cluster_sizes =
        finalize_sums(sums.data(), counts.data(), k, d, cur, prev);
    if (opts.prune) mti.prepare(prev, cur, K);

    std::uint64_t changed = 0;
    std::uint64_t active = 0;
    std::uint64_t rc_hits = 0;
    for (const auto& pt : per_thread) {
      changed += pt.changed;
      active += pt.active;
      rc_hits += pt.rc_hits;
    }
    run_active += active;
    run_rc_hits += rc_hits;
    if (stats != nullptr) {
      IterIo io;
      io.bytes_requested = engine.bytes_requested() - last_requested;
      io.bytes_read = file.bytes_read() - last_read;
      io.device_requests = file.read_requests() - last_reqs;
      io.row_cache_hits = rc_hits;
      io.active_rows = active;
      stats->per_iter.push_back(io);
    }
    last_requested = engine.bytes_requested();
    last_read = file.bytes_read();
    last_reqs = file.read_requests();

    res.iter_times.record(timer.elapsed());
    ++res.iters;

    if (!sem_opts.checkpoint_path.empty() &&
        sem_opts.checkpoint_interval > 0 &&
        (it + 1) % sem_opts.checkpoint_interval == 0) {
      Checkpoint ckpt;
      ckpt.iteration = static_cast<std::uint64_t>(it + 1);
      ckpt.centroids = cur;
      ckpt.assignments = res.assignments;
      if (opts.prune) {
        // Store bounds pre-loosened against the *current* centroids so the
        // resume path can start with drift 0 and stay exact.
        ckpt.upper_bounds.resize(static_cast<std::size_t>(n));
        for (index_t i = 0; i < n; ++i)
          ckpt.upper_bounds[static_cast<std::size_t>(i)] =
              mti.ub(i) + mti.drift(res.assignments[i]);
      }
      ckpt.sums = sums;
      ckpt.counts = counts;
      save_checkpoint(sem_opts.checkpoint_path, ckpt);
    }

    if (changed <= tol_changes) {
      res.converged = true;
      break;
    }
  }

  // Steal statistics before the energy pass reuses the queues.
  const sched::StealStats steals = sched.total_stats();

  // Exact final energy: stream every row once (not counted in iteration
  // I/O statistics). Per-chunk partial energies summed in chunk order keep
  // the FP result thread-count independent like the centroid reduction.
  {
    obs::Span span_energy("energy");
    std::vector<double> chunk_energy(chunks, 0.0);
    sched.begin_chunks(n, task_size, &parts);
    sched.run([&](int tid) {
      DenseMatrix buf(batch_rows, d);
      std::vector<index_t> batch;
      sched::Task task;
      while (sched.next_chunk(tid, task)) {
        double e = 0.0;
        for (index_t begin = task.begin; begin < task.end;
             begin += batch_rows) {
          const index_t end = std::min(task.end, begin + batch_rows);
          batch.clear();
          for (index_t r = begin; r < end; ++r) batch.push_back(r);
          engine.fetch_rows(batch, buf.data());
          for (index_t r = begin; r < end; ++r)
            e += K.dist_sq(buf.row(r - begin), cur.row(res.assignments[r]),
                           d);
        }
        chunk_energy[task.chunk] = e;
      }
    });
    for (const double e : chunk_energy) res.energy += e;
  }

  for (const auto& pt : per_thread) res.counters += pt.counters;
  res.counters.tasks_own = steals.own;
  res.counters.tasks_same_node = steals.same_node;
  res.counters.tasks_remote_node = steals.remote_node;

  // Publish the run's SEM counters (classification per the SemStats
  // contract in sem_kmeans.hpp): demand-side request volume, row-cache
  // hits and clause-1 active-row counts are pure functions of
  // (data, opts); supply-side page traffic races on which worker faults a
  // shared page first, so page-cache hits/misses, device bytes and request
  // counts are timing-class.
  using obs::Det;
  reg.counter("sem.bytes_requested", Det::kDeterministic)
      .add(engine.bytes_requested());
  reg.counter("sem.active_rows", Det::kDeterministic).add(run_active);
  reg.counter("sem.row_cache_hits", Det::kDeterministic).add(run_rc_hits);
  reg.counter("sem.bytes_read", Det::kTiming).add(file.bytes_read());
  reg.counter("sem.device_requests", Det::kTiming)
      .add(file.read_requests());
  reg.counter("sem.page_cache_hits", Det::kTiming).add(engine.page_hits());
  reg.counter("sem.page_cache_misses", Det::kTiming)
      .add(engine.page_misses());
  // Core counter parity (core/run_metrics.hpp): the SEM engine's distance
  // and pruning work must show up under the same core.* names as the
  // in-memory engines, so --metrics agrees with Result::counters here too.
  // This also covers the sched.tasks_* names from res.counters.
  knor::detail::publish_run_counters(res);
  res.metrics = obs::diff(obs_before, reg.snapshot());

  res.centroids = std::move(cur);
  return res;
}

}  // namespace knor::sem
