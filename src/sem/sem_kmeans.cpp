#include "sem/sem_kmeans.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/memory_tracker.hpp"
#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "core/mti.hpp"
#include "numa/partitioner.hpp"
#include "obs/registry.hpp"
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

/// A chunk's intersection with one home partition's row block.
struct Segment {
  index_t begin;
  index_t end;  ///< exclusive
  int home;
};

/// A clause-1 survivor of the chunk being walked: its row-cache copy
/// (nullptr: it is fetched) and, when a refresh admits it, its staging
/// slot `rank` of partition `part` (part < 0: not staged).
struct Survivor {
  index_t row;
  const value_t* cached;
  int part;
  std::uint64_t rank;
};

/// knors's row source for detail::run_parallel_lloyd (the concept in
/// core/engine_impl.hpp; DESIGN.md §4). It keeps only what SEM adds to
/// knori's loop: clause 1 before any data access, the row-cache merge walk
/// with rank staging, batched fetches with a prefetch of the next batch,
/// the refresh's rank count and publish, and the per-iteration IterIo.
/// A chunk's survivors reach the loop's row step in row order, cache hits
/// and fetched misses interleaved, as knori's rows reach it — so knors
/// computes knori's bits.
class SemSource {
 public:
  SemSource(IoEngine& engine, PageFile& file, RowCache& row_cache,
            bool use_rc, const numa::Partitioner& parts,
            sched::Scheduler& sched, index_t task_size, index_t batch_rows,
            SemStats* stats)
      : engine_(engine),
        file_(file),
        row_cache_(row_cache),
        use_rc_(use_rc),
        sched_(sched),
        d_(file.d()),
        batch_rows_(batch_rows),
        stats_(stats),
        io_wait_us_(obs::Registry::global().histogram("sem.io_wait_us",
                                                      obs::Det::kTiming)),
        workers_(static_cast<std::size_t>(sched.threads())),
        part_active_(static_cast<std::size_t>(sched.threads())) {
    // The chunk grid cut at home-partition boundaries, in row order: chunk
    // c owns segments [chunk_segs_[c], chunk_segs_[c + 1]). A refresh
    // ranks each partition's active rows through it: seg_rank_[s] is the
    // rank of segment s's first active row.
    const index_t n = file.n();
    for (index_t begin = 0; begin < n; begin += task_size) {
      chunk_segs_.push_back(segs_.size());
      const index_t end = std::min(n, begin + task_size);
      for (index_t r = begin; r < end;) {
        const int home = parts.thread_of_row(r);
        const index_t seg_end = std::min(end, parts.thread_rows(home).end);
        segs_.push_back({r, seg_end, home});
        r = seg_end;
      }
    }
    chunk_segs_.push_back(segs_.size());
    seg_rank_.resize(use_rc ? segs_.size() : 0);
    // Zero the device/engine monotonic counters after init's fetches; the
    // per-iteration IterIo figures are deltas of them.
    engine_.reset_stats();
    file_.reset_stats();
  }

  void begin_iteration(int it) {
    refresh_ = use_rc_ && row_cache_.begin_iteration(it + 1) ==
                              RowCache::Mode::kRefresh;
  }

  template <typename Stands>
  void prologue(int tid, Stands&& stands) {
    // No worker(tid): its allocation could throw before the barriers below.
    Worker& w = workers_[static_cast<std::size_t>(tid)];
    w.active = 0;
    w.rc_hits = 0;
    if (!refresh_) return;
    // Rank the active rows before any chunk is claimed: count each
    // segment's clause-1 survivors (a static split of the segments), then
    // one thread turns the counts into first ranks per partition.
    const std::size_t S = segs_.size();
    const auto ut = static_cast<std::size_t>(tid);
    const auto uT = static_cast<std::size_t>(sched_.threads());
    for (std::size_t s = S * ut / uT; s < S * (ut + 1) / uT; ++s) {
      std::uint64_t count = 0;
      for (index_t r = segs_[s].begin; r < segs_[s].end; ++r)
        if (!stands(r)) ++count;
      seg_rank_[s] = count;
    }
    sched_.barrier().arrive_and_wait();
    if (tid == 0) {
      std::fill(part_active_.begin(), part_active_.end(), 0);
      for (std::size_t s = 0; s < S; ++s) {
        std::uint64_t& total =
            part_active_[static_cast<std::size_t>(segs_[s].home)];
        const std::uint64_t count = seg_rank_[s];
        seg_rank_[s] = total;
        total += count;
      }
    }
    sched_.barrier().arrive_and_wait();
  }

  template <typename Skip, typename Visit>
  void for_chunk(int tid, const sched::Task& task, Counters&, Skip&& skip,
                 Visit&& visit) {
    Worker& w = worker(tid);
    // Clause 1 first (no data access), then a merge walk of each segment's
    // ascending survivors against its home partition's ascending published
    // ids. In a refresh, a survivor whose rank fits the budget is staged.
    w.survivors.clear();
    w.misses.clear();
    const std::uint64_t budget = row_cache_.rows_per_part();
    for (std::size_t s = chunk_segs_[task.chunk];
         s < chunk_segs_[task.chunk + 1]; ++s) {
      const Segment& seg = segs_[s];
      const RowCache::Slab pub = row_cache_.published(seg.home);
      const index_t* const pub_end = pub.ids + pub.size;
      const index_t* hit = std::lower_bound(pub.ids, pub_end, seg.begin);
      std::uint64_t rank = refresh_ ? seg_rank_[s] : 0;
      for (index_t r = seg.begin; r < seg.end; ++r) {
        if (skip(r)) continue;  // assignment stands: no I/O, no compute
        while (hit != pub_end && *hit < r) ++hit;
        const value_t* cached = nullptr;
        if (hit != pub_end && *hit == r)
          cached = pub.rows + static_cast<std::size_t>(hit - pub.ids) * d_;
        else
          w.misses.push_back(r);
        const bool staged = refresh_ && rank < budget;
        w.survivors.push_back({r, cached, staged ? seg.home : -1, rank++});
      }
    }
    w.active += w.survivors.size();
    w.rc_hits += w.survivors.size() - w.misses.size();

    // Survivors in row order. A miss past the fetched batch fetches the
    // next one, first handing the batch after it to the prefetch thread.
    std::size_t next_miss = 0, batch_begin = 0, batch_end = 0;
    IoEngine::Ticket ticket;
    for (const Survivor& sv : w.survivors) {
      const value_t* v = sv.cached;
      if (v == nullptr) {
        if (next_miss == batch_end) {
          ticket.wait();
          batch_begin = batch_end;
          batch_end = std::min(w.misses.size(), batch_begin + batch_rows_);
          const std::size_t ahead =
              std::min(w.misses.size(), batch_end + batch_rows_);
          if (ahead > batch_end)
            ticket = engine_.prefetch(std::vector<index_t>(
                w.misses.begin() + static_cast<std::ptrdiff_t>(batch_end),
                w.misses.begin() + static_cast<std::ptrdiff_t>(ahead)));
          w.batch.assign(
              w.misses.begin() + static_cast<std::ptrdiff_t>(batch_begin),
              w.misses.begin() + static_cast<std::ptrdiff_t>(batch_end));
          const std::uint64_t t0 = obs::Tracer::now_us();
          engine_.fetch_rows(w.batch, w.buf.data());
          io_wait_us_.record(obs::Tracer::now_us() - t0);
        }
        v = w.buf.row(static_cast<index_t>(next_miss++ - batch_begin));
      }
      visit(sv.row, v);
      if (sv.part >= 0) row_cache_.stage(sv.part, sv.rank, sv.row, v);
    }
  }

  void end_iteration() {
    if (refresh_) row_cache_.publish(part_active_);
    std::uint64_t active = 0;
    std::uint64_t rc_hits = 0;
    for (const Worker& w : workers_) {
      active += w.active;
      rc_hits += w.rc_hits;
    }
    run_active_ += active;
    run_rc_hits_ += rc_hits;
    if (stats_ != nullptr) {
      IterIo io;
      io.bytes_requested = engine_.bytes_requested() - last_requested_;
      io.bytes_read = file_.bytes_read() - last_read_;
      io.device_requests = file_.read_requests() - last_reqs_;
      io.row_cache_hits = rc_hits;
      io.active_rows = active;
      stats_->per_iter.push_back(io);
    }
    last_requested_ = engine_.bytes_requested();
    last_read_ = file_.bytes_read();
    last_reqs_ = file_.read_requests();
  }

  /// Every row of the task, streamed once in fetch batches (not counted in
  /// the iteration I/O statistics).
  template <typename Visit>
  void for_energy(int tid, const sched::Task& task, Visit&& visit) {
    Worker& w = worker(tid);
    for (index_t begin = task.begin; begin < task.end; begin += batch_rows_) {
      const index_t end = std::min(task.end, begin + batch_rows_);
      w.batch.clear();
      for (index_t r = begin; r < end; ++r) w.batch.push_back(r);
      engine_.fetch_rows(w.batch, w.buf.data());
      for (index_t r = begin; r < end; ++r) visit(r, w.buf.row(r - begin));
    }
  }

  /// Publish the run's SEM counters (classification per the SemStats
  /// contract in sem_kmeans.hpp):
  /// demand-side request volume, row-cache hits and clause-1 active-row
  /// counts are pure functions of (data, opts); supply-side page traffic
  /// races on which worker faults a shared page first, so page-cache
  /// hits/misses, device bytes and request counts are timing-class.
  void end_run() {
    using obs::Det;
    obs::Registry& reg = obs::Registry::global();
    reg.counter("sem.bytes_requested", Det::kDeterministic)
        .add(engine_.bytes_requested());
    reg.counter("sem.active_rows", Det::kDeterministic).add(run_active_);
    reg.counter("sem.row_cache_hits", Det::kDeterministic).add(run_rc_hits_);
    reg.counter("sem.bytes_read", Det::kTiming).add(file_.bytes_read());
    reg.counter("sem.device_requests", Det::kTiming)
        .add(file_.read_requests());
    reg.counter("sem.page_cache_hits", Det::kTiming)
        .add(engine_.page_hits());
    reg.counter("sem.page_cache_misses", Det::kTiming)
        .add(engine_.page_misses());
  }

 private:
  /// One worker's state. The fetch buffer is allocated once per run, on
  /// the worker's own thread, by its first worker() call (in for_chunk or
  /// for_energy).
  struct alignas(kCacheLine) Worker {
    std::uint64_t active = 0;   ///< this iteration's clause-1 survivors
    std::uint64_t rc_hits = 0;  ///< ... of which the row cache served
    std::vector<Survivor> survivors;
    std::vector<index_t> misses;  ///< the survivors to fetch, ascending
    std::vector<index_t> batch;   ///< the rows of the fetch in `buf`
    DenseMatrix buf;              ///< batch_rows x d
  };

  Worker& worker(int tid) {
    Worker& w = workers_[static_cast<std::size_t>(tid)];
    if (w.buf.empty()) w.buf = DenseMatrix(batch_rows_, d_);
    return w;
  }

  IoEngine& engine_;
  PageFile& file_;
  RowCache& row_cache_;
  const bool use_rc_;
  sched::Scheduler& sched_;
  const index_t d_;
  const index_t batch_rows_;
  SemStats* const stats_;
  // Demand-side I/O wait as seen by one worker: each blocking fetch_rows
  // call is one sample. Timing-class, like every latency.
  obs::Histogram& io_wait_us_;
  std::vector<Worker> workers_;
  std::vector<Segment> segs_;
  std::vector<std::size_t> chunk_segs_;
  std::vector<std::uint64_t> seg_rank_;
  std::vector<std::uint64_t> part_active_;  ///< active rows per partition
  bool refresh_ = false;
  std::uint64_t last_requested_ = 0;
  std::uint64_t last_read_ = 0;
  std::uint64_t last_reqs_ = 0;
  // Run totals of the workers' per-iteration demand-side tallies.
  std::uint64_t run_active_ = 0;
  std::uint64_t run_rc_hits_ = 0;
};

/// knors's checkpoint writer, called at the loop's iteration boundaries:
/// every `checkpoint_interval` iterations it saves the state a resume
/// needs. The converging iteration writes none (the observer is not
/// called there): the run is complete.
class CheckpointObserver final : public detail::IterObserver {
 public:
  explicit CheckpointObserver(const SemOptions& sem_opts)
      : sem_opts_(sem_opts) {}

  bool on_iteration(const detail::IterationView& view) override {
    if (view.iteration %
            static_cast<std::uint64_t>(sem_opts_.checkpoint_interval) !=
        0)
      return true;
    Checkpoint ckpt;
    ckpt.iteration = view.iteration;
    ckpt.centroids = *view.centroids;
    ckpt.assignments = *view.assignments;
    ckpt.upper_bounds = detail::checkpoint_bounds(view);
    if (view.sums != nullptr) {
      ckpt.sums = *view.sums;
      ckpt.counts = *view.counts;
    }
    save_checkpoint(sem_opts_.checkpoint_path, ckpt);
    return true;
  }

 private:
  const SemOptions& sem_opts_;
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
  // knors's registry slice (DESIGN.md §10) spans the whole call, the page
  // file's open and init's fetches included, not only the loop's.
  obs::Registry& reg = obs::Registry::global();
  const obs::Snapshot obs_before = reg.snapshot();
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

  // Resume from a lightweight checkpoint when requested (recovery path of
  // FlashGraph-style failure tolerance). Falls through to a fresh start
  // when no checkpoint exists yet.
  detail::ResumeState resume;
  DenseMatrix initial;
  if (sem_opts.resume && !sem_opts.checkpoint_path.empty() &&
      checkpoint_exists(sem_opts.checkpoint_path)) {
    Checkpoint restored = load_checkpoint(sem_opts.checkpoint_path);
    if (restored.n() != n || restored.k() != k ||
        restored.centroids.cols() != d)
      throw std::runtime_error(
          "sem::kmeans: checkpoint shape does not match dataset/options");
    // With MTI the loop applies membership deltas to persistent sums, so
    // a resume needs the bounds and the sums; without MTI it rebuilds the
    // sums every iteration and needs neither.
    if (opts.prune) {
      if (restored.upper_bounds.empty())
        throw std::runtime_error(
            "sem::kmeans: checkpoint lacks MTI state but pruning is on");
      if (restored.sums.rows() != static_cast<index_t>(k) ||
          restored.sums.cols() != d)
        throw std::runtime_error(
            "sem::kmeans: checkpoint lacks the sums block (k x d)");
      if (restored.counts.size() != static_cast<std::size_t>(k))
        throw std::runtime_error(
            "sem::kmeans: checkpoint lacks the counts block (k)");
      resume.upper_bounds = std::move(restored.upper_bounds);
      resume.sums = std::move(restored.sums);
      resume.counts = std::move(restored.counts);
    }
    resume.iteration = restored.iteration;
    resume.assignments = std::move(restored.assignments);
    initial = std::move(restored.centroids);
  } else {
    initial = sem_init_centroids(file, engine, opts);
  }

  numa::Partitioner parts(n, T, topo);
  sched::Scheduler sched(T, topo, /*bind=*/opts.numa_bind, opts.sched);
  // Like knori's, the accumulation is keyed to the (n, task_size) chunk
  // grid rather than to threads, so knors results are bitwise invariant to
  // steal order and thread count (DESIGN.md §7). I/O-completion work stays
  // on the same queues: a worker that finishes its node's chunks steals
  // I/O-feeding chunks from the cheapest remote node.
  const index_t task_size =
      sched::Scheduler::resolve_task_size(n, opts.task_size);
  const index_t batch_rows =
      sem_opts.io_batch_rows == 0 ? 2048 : sem_opts.io_batch_rows;
  SemSource src(engine, file, row_cache, use_rc, parts, sched, task_size,
                batch_rows, stats);
  CheckpointObserver checkpoints(sem_opts);
  const bool checkpointing = !sem_opts.checkpoint_path.empty() &&
                             sem_opts.checkpoint_interval > 0;
  Result res = detail::run_parallel_lloyd(
      src, n, d, opts, std::move(initial), sched, parts, nullptr,
      resume.iteration > 0 ? &resume : nullptr,
      checkpointing ? &checkpoints : nullptr);
  res.metrics = obs::diff(obs_before, reg.snapshot());
  return res;
}

}  // namespace knor::sem
