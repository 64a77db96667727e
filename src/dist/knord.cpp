#include "dist/knord.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/knori.hpp"
#include "core/mti.hpp"
#include "dist/comm.hpp"
#include "dist/membership.hpp"
#include "numa/partitioner.hpp"
#include "obs/registry.hpp"
#include "sem/checkpoint.hpp"

namespace knor::dist {
namespace {

/// Adapts the rank's Communicator to the engine's cross-node hook.
class CommReducer final : public knor::detail::GlobalReducer {
 public:
  explicit CommReducer(Communicator& comm) : comm_(comm) {}
  void allreduce(double* vals, std::size_t n) override {
    comm_.allreduce_sum(vals, n);
  }

 private:
  Communicator& comm_;
};

void validate(index_t n, index_t d, const Options& opts,
              const DistOptions& dopts) {
  if (n == 0 || d == 0)
    throw std::invalid_argument("dist::kmeans: empty dataset");
  if (opts.k < 1) throw std::invalid_argument("dist::kmeans: k < 1");
  if (static_cast<index_t>(opts.k) > n)
    throw std::invalid_argument("dist::kmeans: k > n");
  if (dopts.ranks < 1)
    throw std::invalid_argument("dist::kmeans: ranks < 1");
  if (static_cast<index_t>(dopts.ranks) > n)
    throw std::invalid_argument("dist::kmeans: more ranks than rows");
}

/// Produces the rank's shard view; `storage` keeps generated shards alive
/// for the duration of the rank's run.
using ShardFn =
    std::function<ConstMatrixView(numa::RowRange, DenseMatrix& storage)>;

/// SPMD driver shared by knord (matrix and generator forms) and the flat
/// MPI baseline. `initial` must already be the replicated, deterministic
/// k x d starting centroids — every rank copies it, exactly as every rank
/// of a real deployment computes the same seeded initialization.
Result run_cluster(index_t n, const Options& opts,
                   const DistOptions& dopts, const DenseMatrix& initial,
                   const ShardFn& shard_of, bool numa_engine) {
  const int num_ranks = dopts.ranks;
  Cluster cluster(num_ranks);
  // Per-cluster interconnect: concurrent runs with different models stay
  // isolated. Leaving it unset would fall back to the NetSim default.
  if (dopts.net.enabled()) cluster.set_net(dopts.net);

  // Per-run registry slice taken at the CLUSTER level: ranks run
  // concurrently in this process, so run_parallel_lloyd skips its own
  // attach (reducer != nullptr) and the coherent diff — covering every
  // rank's counters plus the NetSim collective traffic — is taken here.
  obs::Registry& reg = obs::Registry::global();
  const obs::Snapshot obs_before = reg.snapshot();

  std::vector<Result> rank_results(static_cast<std::size_t>(num_ranks));

  cluster.run([&](Communicator& comm) {
    const numa::RowRange rows =
        numa::block_range(n, num_ranks, comm.rank());
    DenseMatrix storage;
    const ConstMatrixView shard = shard_of(rows, storage);

    Options local = opts;
    if (numa_engine) {
      // Each rank spins up its own NUMA-partitioned work-stealing
      // scheduler (run_node constructs a per-rank sched::Scheduler over
      // the rank's shard); task_size / sched policy / numa_bind flow
      // through from the caller's Options unchanged.
      local.threads =
          dopts.threads_per_rank > 0 ? dopts.threads_per_rank : 1;
    } else {
      // Flat MPI baseline: one NUMA-oblivious compute thread per rank.
      local.threads = 1;
      local.numa_aware = false;
    }

    CommReducer reducer(comm);
    DenseMatrix start = initial;  // replicated copy
    Result res =
        knor::detail::run_node(shard, local, std::move(start), &reducer);

    // Allgather the shard assignments into the full vector (and charge
    // the O(n) wire cost of the real end-of-run gather).
    std::vector<cluster_t> full(static_cast<std::size_t>(n));
    comm.allgatherv(res.assignments.data(),
                    static_cast<std::size_t>(rows.size()), full.data(),
                    static_cast<std::size_t>(rows.begin),
                    static_cast<std::size_t>(n));
    res.assignments = std::move(full);
    rank_results[static_cast<std::size_t>(comm.rank())] = std::move(res);
  });

  // Ranks hold identical centroids, cluster sizes, iteration count and
  // (allreduced) energy; rank 0's result is the cluster's. Instrumentation
  // is aggregated across ranks like the engine aggregates across threads.
  Result out = std::move(rank_results[0]);
  for (int r = 1; r < num_ranks; ++r) {
    const Result& rr = rank_results[static_cast<std::size_t>(r)];
    out.counters += rr.counters;
    out.thread_busy_s.insert(out.thread_busy_s.end(),
                             rr.thread_busy_s.begin(),
                             rr.thread_busy_s.end());
  }
  out.metrics = obs::diff(obs_before, reg.snapshot());
  return out;
}

/// Deterministic replicated initialization for the generator form: forgy
/// rows are materialized individually (generate_rows is per-row
/// deterministic), so no rank ever needs the full matrix.
DenseMatrix generator_initial(const data::GeneratorSpec& spec,
                              const Options& opts) {
  if (opts.init == Init::kProvided) {
    if (opts.initial_centroids.rows() != static_cast<index_t>(opts.k) ||
        opts.initial_centroids.cols() != spec.d)
      throw std::invalid_argument(
          "dist::kmeans: provided centroids shape mismatch");
    return opts.initial_centroids;
  }
  if (opts.init != Init::kForgy)
    throw std::invalid_argument(
        "dist::kmeans(generator): this initialization needs a full-data "
        "scan; use forgy or provided centroids");
  const std::vector<index_t> rows = sample_rows(spec.n, opts.k, opts.seed);
  DenseMatrix centroids(static_cast<index_t>(opts.k), spec.d);
  for (int c = 0; c < opts.k; ++c) {
    MutMatrixView row_view(centroids.row(static_cast<index_t>(c)), 1,
                           spec.d);
    const index_t r = rows[static_cast<std::size_t>(c)];
    data::generate_rows(spec, r, r + 1, row_view);
  }
  return centroids;
}

// ---------------------------------------------------------------------------
// Fault-tolerant elastic driver (ft_kmeans, DESIGN.md §13).

/// Replicated global state between epochs, in the FULL row space. Restored
/// from a checkpoint (or fresh) by the driver, sliced per rank on entry.
struct FtState {
  std::uint64_t iteration = 0;  ///< 0 = fresh start
  DenseMatrix centroids;
  std::vector<cluster_t> assignments;  ///< size n when iteration > 0
  std::vector<value_t> upper_bounds;   ///< size n (pruning only)
  DenseMatrix sums;                    ///< k x d (pruning only)
  std::vector<std::int64_t> counts;    ///< k (pruning only)
};

/// Deterministic fault-metric handles, resolved once per ft_kmeans call.
struct FtMetrics {
  obs::Counter& faults;
  obs::Counter& retries;
  obs::Counter& recoveries;
  obs::Counter& checkpoints;
  obs::Counter& member_events;
  obs::Histogram& recovery_us;

  static FtMetrics get() {
    using obs::Det;
    obs::Registry& reg = obs::Registry::global();
    return FtMetrics{
        reg.counter("dist.faults_injected", Det::kDeterministic),
        reg.counter("dist.retries", Det::kDeterministic),
        reg.counter("dist.recoveries", Det::kDeterministic),
        reg.counter("dist.checkpoints", Det::kDeterministic),
        reg.counter("dist.membership_events", Det::kDeterministic),
        reg.histogram("dist.recovery_us", Det::kTiming)};
  }
};

/// Driver<->rank coordination for one epoch. `latest` points at the
/// driver's checkpoint slot; only the leader thread writes it (before the
/// driver joins the epoch, so the join is the happens-before edge).
struct FtEpochCtx {
  std::atomic<bool> stopped{false};
  std::atomic<std::uint64_t> stop_iteration{0};
  std::shared_ptr<const sem::Checkpoint>* latest = nullptr;
};

/// CommReducer + transient-fault injection: the per-iteration wire
/// collective (k*d + k + 1 doubles — the only allreduce of that size the
/// engine issues) identifies which logical iteration is completing, and
/// the plan's `flaky` events for it are served as failed attempts with
/// exponential backoff. Every rank consults the identical plan, so all
/// ranks run the retry loop in lockstep; only rank 0 bumps the metrics
/// (one count per EVENT, not per rank — keeps the counters deterministic
/// and survivor-count independent).
class FtReducer final : public knor::detail::GlobalReducer {
 public:
  FtReducer(Communicator& comm, const FtOptions& fopts,
            std::uint64_t start_iteration, std::size_t iter_wire_elems,
            const FtMetrics& metrics)
      : comm_(comm),
        fopts_(fopts),
        iteration_(start_iteration),
        wire_elems_(iter_wire_elems),
        metrics_(metrics) {}

  void allreduce(double* vals, std::size_t n) override {
    if (n == wire_elems_) inject_transients(++iteration_);
    comm_.allreduce_sum(vals, n);
  }

 private:
  void inject_transients(std::uint64_t iteration) {
    const int failures = fopts_.plan.transient_failures_at(iteration);
    if (failures == 0) return;
    double backoff_us = fopts_.backoff_us;
    const int attempts = std::min(failures, fopts_.max_retries);
    for (int a = 0; a < attempts; ++a) {
      if (comm_.rank() == 0) {
        metrics_.faults.inc();
        metrics_.retries.inc();
      }
      if (backoff_us > 0.0)
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long long>(std::llround(backoff_us))));
      backoff_us *= 2.0;
    }
    if (failures > fopts_.max_retries)
      throw std::runtime_error(
          "dist::ft_kmeans: collective at iteration " +
          std::to_string(iteration) + " timed out " +
          std::to_string(failures) + " times (max_retries " +
          std::to_string(fopts_.max_retries) +
          " exhausted; treating as a partition, not a crash)");
  }

  Communicator& comm_;
  const FtOptions& fopts_;
  std::uint64_t iteration_;
  const std::size_t wire_elems_;
  FtMetrics metrics_;
};

/// Per-rank boundary hook: crash injection first (so a crash boundary
/// never half-writes a checkpoint), then periodic/forced checkpointing,
/// then the graceful-membership stop. All decisions are pure functions of
/// (plan, boundary, live set), so every rank decides identically.
class FtObserver final : public knor::detail::IterObserver {
 public:
  FtObserver(Communicator& comm, const Membership& mem, int node,
             numa::RowRange rows, index_t n, const FtOptions& fopts,
             std::uint64_t epoch, FtEpochCtx* ctx, const FtMetrics& metrics)
      : comm_(comm),
        mem_(mem),
        node_(node),
        rows_(rows),
        n_(n),
        fopts_(fopts),
        epoch_(epoch),
        ctx_(ctx),
        metrics_(metrics) {}

  bool on_iteration(const knor::detail::IterationView& view) override {
    // 1. Scheduled crash of this node. Every rank completed this
    // boundary's allreduce before any observer runs, so all crashing
    // nodes of the boundary reach this check (their compute between the
    // allreduce and here has no abort point) — the recovery can remove
    // the plan's whole crash set for the boundary deterministically.
    if (fopts_.plan.crash_at(view.iteration, node_)) {
      metrics_.faults.inc();
      throw RankFailure(node_, view.iteration);
    }
    // 2. Graceful membership events at this boundary, idempotent against
    // the live set so recovery replays cannot refire them.
    bool member_stop = false;
    for (const MemberEvent& e :
         fopts_.plan.member_events_at(view.iteration))
      if (e.join != mem_.is_live(e.node)) member_stop = true;
    // 3. Periodic checkpoint — forced before a membership re-shard so the
    // new cluster resumes from exactly this boundary.
    const int every = fopts_.checkpoint_every;
    const bool due =
        every > 0 &&
        view.iteration % static_cast<std::uint64_t>(every) == 0;
    if (due || member_stop) write_checkpoint(view);
    if (member_stop) {
      ctx_->stop_iteration.store(view.iteration,
                                 std::memory_order_relaxed);
      ctx_->stopped.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

 private:
  void write_checkpoint(const knor::detail::IterationView& view) {
    // Every rank gathers the shard state (the O(n) wire cost of a real
    // gather-to-leader); the leader — comm rank 0, the lowest live node —
    // assembles and persists the checkpoint.
    const auto nn = static_cast<std::size_t>(n_);
    const auto begin = static_cast<std::size_t>(rows_.begin);
    const auto count = static_cast<std::size_t>(rows_.size());
    std::vector<cluster_t> assignments(nn);
    comm_.allgatherv(view.assignments->data(), count, assignments.data(),
                     begin, nn);
    std::vector<value_t> bounds;
    if (view.mti != nullptr) {
      const std::vector<value_t> loosened =
          knor::detail::checkpoint_bounds(view);
      bounds.resize(nn);
      comm_.allgatherv(loosened.data(), count, bounds.data(), begin, nn);
    }
    if (comm_.rank() != 0) return;
    auto ckpt = std::make_shared<sem::Checkpoint>();
    ckpt->iteration = view.iteration;
    ckpt->centroids = *view.centroids;
    ckpt->assignments = std::move(assignments);
    ckpt->upper_bounds = std::move(bounds);
    if (view.sums != nullptr) {
      ckpt->sums = *view.sums;
      ckpt->counts = *view.counts;
    }
    ckpt->dist_epoch = epoch_;
    ckpt->dist_world = static_cast<std::int32_t>(mem_.world());
    ckpt->dist_nodes = mem_.nodes();
    if (!fopts_.checkpoint_path.empty())
      sem::save_checkpoint(fopts_.checkpoint_path, *ckpt);
    *ctx_->latest = std::move(ckpt);
    metrics_.checkpoints.inc();
  }

  Communicator& comm_;
  const Membership& mem_;
  const int node_;
  const numa::RowRange rows_;
  const index_t n_;
  const FtOptions& fopts_;
  const std::uint64_t epoch_;
  FtEpochCtx* ctx_;
  FtMetrics metrics_;
};

FtState state_from(const sem::Checkpoint& ckpt, index_t n, index_t d,
                   const Options& opts) {
  if (ckpt.n() != n || ckpt.k() != opts.k || ckpt.centroids.cols() != d)
    throw std::runtime_error(
        "dist::ft_kmeans: checkpoint shape does not match dataset/options");
  if (opts.prune && (ckpt.upper_bounds.empty() || ckpt.sums.empty()))
    throw std::runtime_error(
        "dist::ft_kmeans: checkpoint lacks MTI state but pruning is on");
  FtState st;
  st.iteration = ckpt.iteration;
  st.centroids = ckpt.centroids;
  st.assignments = ckpt.assignments;
  st.upper_bounds = ckpt.upper_bounds;
  st.sums = ckpt.sums;
  st.counts = ckpt.counts;
  return st;
}

/// The latest distributed checkpoint: the file when a path is configured
/// (exercising the durable load/checksum path), else the in-memory
/// snapshot, else a fresh start from the run's initial centroids.
FtState restore_state(const FtOptions& fopts,
                      const std::shared_ptr<const sem::Checkpoint>& latest,
                      const DenseMatrix& initial, index_t n, index_t d,
                      const Options& opts) {
  if (!fopts.checkpoint_path.empty() &&
      sem::checkpoint_exists(fopts.checkpoint_path))
    return state_from(sem::load_checkpoint(fopts.checkpoint_path), n, d,
                      opts);
  if (latest) return state_from(*latest, n, d, opts);
  FtState st;
  st.centroids = initial;
  return st;
}

void validate_ft(const Options& opts, const DistOptions& dopts,
                 const FtOptions& fopts) {
  fopts.plan.validate();
  if (fopts.checkpoint_every < 0)
    throw std::invalid_argument(
        "dist::ft_kmeans: checkpoint_every must be >= 0");
  if (fopts.max_retries < 0)
    throw std::invalid_argument("dist::ft_kmeans: max_retries must be >= 0");
  if (fopts.backoff_us < 0.0)
    throw std::invalid_argument("dist::ft_kmeans: backoff_us must be >= 0");
  if (fopts.resume && fopts.checkpoint_path.empty())
    throw std::invalid_argument(
        "dist::ft_kmeans: resume requires a checkpoint path");
  if (opts.tolerance > 0.0 && !fopts.plan.empty())
    throw std::invalid_argument(
        "dist::ft_kmeans: nonzero tolerance with faults would let a "
        "recovery replay converge at a different iteration; use exact "
        "convergence (tolerance 0)");
  (void)dopts;
}

}  // namespace

Result kmeans(ConstMatrixView data, const Options& opts,
              const DistOptions& dopts) {
  validate(data.rows(), data.cols(), opts, dopts);
  const DenseMatrix initial = init_centroids(data, opts);
  return run_cluster(
      data.rows(), opts, dopts, initial,
      [&data](numa::RowRange rows, DenseMatrix&) {
        return data.sub_rows(rows.begin, rows.size());
      },
      /*numa_engine=*/true);
}

Result kmeans(const data::GeneratorSpec& spec, const Options& opts,
              const DistOptions& dopts) {
  validate(spec.n, spec.d, opts, dopts);
  const DenseMatrix initial = generator_initial(spec, opts);
  return run_cluster(
      spec.n, opts, dopts, initial,
      [&spec](numa::RowRange rows, DenseMatrix& storage) {
        storage = DenseMatrix(rows.size(), spec.d);
        data::generate_rows(spec, rows.begin, rows.end, storage.view());
        return storage.const_view();
      },
      /*numa_engine=*/true);
}

Result mpi_kmeans(ConstMatrixView data, const Options& opts,
                  const DistOptions& dopts) {
  validate(data.rows(), data.cols(), opts, dopts);
  const DenseMatrix initial = init_centroids(data, opts);
  return run_cluster(
      data.rows(), opts, dopts, initial,
      [&data](numa::RowRange rows, DenseMatrix&) {
        return data.sub_rows(rows.begin, rows.size());
      },
      /*numa_engine=*/false);
}

Result ft_kmeans(ConstMatrixView data, const Options& opts,
                 const DistOptions& dopts, const FtOptions& fopts) {
  const index_t n = data.rows();
  const index_t d = data.cols();
  validate(n, d, opts, dopts);
  validate_ft(opts, dopts, fopts);

  const DenseMatrix initial = init_centroids(data, opts);
  const FtMetrics metrics = FtMetrics::get();
  obs::Registry& reg = obs::Registry::global();
  const obs::Snapshot obs_before = reg.snapshot();

  // One logical allreduce per iteration: k*d sums + k counts + changed.
  const std::size_t wire_elems =
      static_cast<std::size_t>(opts.k) * static_cast<std::size_t>(d) +
      static_cast<std::size_t>(opts.k) + 1;

  Membership mem(dopts.ranks);
  std::shared_ptr<const sem::Checkpoint> latest;

  FtState st;
  if (fopts.resume && sem::checkpoint_exists(fopts.checkpoint_path))
    st = state_from(sem::load_checkpoint(fopts.checkpoint_path), n, d, opts);
  else
    st.centroids = initial;

  Result out;
  std::uint64_t epoch = 0;
  for (;;) {
    const int live = mem.live();
    if (static_cast<index_t>(live) > n)
      throw std::invalid_argument(
          "dist::ft_kmeans: join left more live ranks than rows");

    Cluster cluster(live);
    if (dopts.net.enabled()) cluster.set_net(dopts.net);
    for (int r = 0; r < live; ++r) {
      const double mult =
          fopts.plan.straggler_multiplier(mem.node_at(r));
      if (mult != 1.0) cluster.set_straggler(r, mult);
    }
    if (fopts.collective_timeout_ms > 0)
      cluster.set_collective_timeout_ms(fopts.collective_timeout_ms);

    FtEpochCtx ctx;
    ctx.latest = &latest;
    std::vector<Result> rank_results(static_cast<std::size_t>(live));

    try {
      cluster.run([&](Communicator& comm) {
        const int node = mem.node_at(comm.rank());
        const numa::RowRange rows = mem.shard(n, comm.rank());
        const ConstMatrixView shard = data.sub_rows(rows.begin, rows.size());

        Options local = opts;
        local.threads =
            dopts.threads_per_rank > 0 ? dopts.threads_per_rank : 1;

        // Slice the replicated full-n state down to this rank's shard.
        knor::detail::ResumeState rs;
        const knor::detail::ResumeState* rsp = nullptr;
        if (st.iteration > 0) {
          const auto b = static_cast<std::ptrdiff_t>(rows.begin);
          const auto e = static_cast<std::ptrdiff_t>(rows.end);
          rs.iteration = st.iteration;
          rs.assignments.assign(st.assignments.begin() + b,
                                st.assignments.begin() + e);
          if (opts.prune) {
            rs.upper_bounds.assign(st.upper_bounds.begin() + b,
                                   st.upper_bounds.begin() + e);
            rs.sums = st.sums;
            rs.counts = st.counts;
          }
          rsp = &rs;
        }

        FtReducer reducer(comm, fopts, st.iteration, wire_elems, metrics);
        FtObserver observer(comm, mem, node, rows, n, fopts, epoch, &ctx,
                            metrics);
        DenseMatrix start = st.centroids;  // replicated copy
        Result res = knor::detail::run_node(shard, local, std::move(start),
                                            &reducer, rsp, &observer);

        std::vector<cluster_t> full(static_cast<std::size_t>(n));
        comm.allgatherv(res.assignments.data(),
                        static_cast<std::size_t>(rows.size()), full.data(),
                        static_cast<std::size_t>(rows.begin),
                        static_cast<std::size_t>(n));
        res.assignments = std::move(full);
        rank_results[static_cast<std::size_t>(comm.rank())] =
            std::move(res);
      });
    } catch (const RankFailure& f) {
      // The earliest crash boundary always wins the abort race (later
      // crashes sit behind collectives the earlier crasher never joins),
      // and the whole crash set of that boundary is removed at once, so
      // the survivor sequence is a pure function of the plan.
      WallTimer recovery_timer;
      for (const int node : fopts.plan.crashed_nodes_at(f.iteration))
        if (mem.is_live(node)) mem.remove(node);
      if (mem.live() == 0) throw;  // no survivor to recover onto
      st = restore_state(fopts, latest, initial, n, d, opts);
      metrics.recoveries.inc();
      metrics.recovery_us.record(static_cast<std::uint64_t>(
          recovery_timer.elapsed() * 1e6));
      ++epoch;
      continue;
    }

    if (ctx.stopped.load(std::memory_order_relaxed)) {
      // Graceful elasticity: the epoch checkpointed and stopped at this
      // boundary; apply the (idempotent) membership changes and re-shard.
      const std::uint64_t at =
          ctx.stop_iteration.load(std::memory_order_relaxed);
      for (const MemberEvent& e : fopts.plan.member_events_at(at)) {
        if (e.join == mem.is_live(e.node)) continue;
        if (e.join)
          mem.add(e.node);
        else
          mem.remove(e.node);
        metrics.member_events.inc();
      }
      if (mem.live() == 0)
        throw std::runtime_error(
            "dist::ft_kmeans: every rank left the cluster at iteration " +
            std::to_string(at));
      st = restore_state(fopts, latest, initial, n, d, opts);
      ++epoch;
      continue;
    }

    // Uninterrupted epoch: aggregate like run_cluster does. res.iters
    // already counts TOTAL logical iterations (resume offsets it).
    out = std::move(rank_results[0]);
    for (int r = 1; r < live; ++r) {
      const Result& rr = rank_results[static_cast<std::size_t>(r)];
      out.counters += rr.counters;
      out.thread_busy_s.insert(out.thread_busy_s.end(),
                               rr.thread_busy_s.begin(),
                               rr.thread_busy_s.end());
    }
    break;
  }

  out.metrics = obs::diff(obs_before, reg.snapshot());
  return out;
}

}  // namespace knor::dist
