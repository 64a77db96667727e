#include "serve/front_end.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "numa/topology.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"
#include "common/bounded_queue.hpp"

namespace knor::serve {

const char* to_string(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kBlock: return "block";
    case ShedPolicy::kShed: return "shed";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t to_us(double s) {
  return s > 0 ? static_cast<std::uint64_t>(s * 1e6) : 0;
}

/// One admitted request, owned by the queue until the dispatcher demuxes
/// it. Result vectors are sized at submit (client thread) so the
/// dispatcher and workers never allocate per row.
struct Pending {
  ConstMatrixView rows;
  int m = 0;  ///< 0 = assignment, >0 = top-m
  std::promise<Response> promise;
  Response resp;
  Clock::time_point t_submit;
};

/// Writes the m smallest of dist[0..k) into top[0..m), ascending by
/// (dist_sq, index), by insertion. Indices arrive in ascending order, so
/// a strict `<` both to displace the m-th entry and to shift past an
/// entry keeps equal distances in index order: the result is the sorted
/// prefix, and top[0] is what nearest_blocked picks. Every comparison with
/// a NaN is false, so a NaN neither moves ahead of an entry nor lets one
/// move ahead of it: the result stays a defined function of dist.
void select_top(const value_t* dist, int k, int m, TopEntry* top) {
  int len = 0;
  for (int c = 0; c < k; ++c) {
    const value_t dc = dist[c];
    int j;
    if (len < m)
      j = len++;
    else if (dc < top[m - 1].dist_sq)
      j = m - 1;
    else
      continue;
    for (; j > 0 && dc < top[j - 1].dist_sq; --j) top[j] = top[j - 1];
    top[j] = {static_cast<cluster_t>(c), dc};
  }
}

}  // namespace

struct QueryFrontEnd::Impl {
  Impl(const DenseMatrix& c, const Options& o, const FrontEndOptions& f)
      : opts(o),
        fopts(f),
        centroids(c),
        topo(o.numa_nodes > 0 ? numa::Topology::simulated(o.numa_nodes)
                              : numa::Topology::detect()),
        threads(o.threads > 0 ? o.threads : topo.num_cpus()),
        sched(threads, topo, /*bind=*/o.numa_aware && o.numa_bind, o.sched),
        ops(&kernels::ops_for(o.simd)),
        queue(f.queue_depth),
        scratch(static_cast<std::size_t>(threads)),
        // Client-driven totals are deterministic (a pure function of what
        // the clients submit); everything batching- or occupancy-shaped
        // races on arrival timing and is declared kTiming (see the header
        // determinism contract).
        m_requests(obs::Registry::global().counter("serve.requests",
                                                   obs::Det::kDeterministic)),
        m_rows(obs::Registry::global().counter("serve.rows",
                                               obs::Det::kDeterministic)),
        m_topm(obs::Registry::global().counter("serve.topm_requests",
                                               obs::Det::kDeterministic)),
        m_shed(obs::Registry::global().counter("serve.shed",
                                               obs::Det::kTiming)),
        m_batches(obs::Registry::global().counter("serve.batches",
                                                  obs::Det::kTiming)),
        m_batch_rows(obs::Registry::global().histogram("serve.batch_rows",
                                                       obs::Det::kTiming)),
        m_queue_wait(obs::Registry::global().histogram("serve.queue_wait_us",
                                                       obs::Det::kTiming)),
        m_compute(obs::Registry::global().histogram("serve.compute_us",
                                                    obs::Det::kTiming)),
        m_request(obs::Registry::global().histogram("serve.request_us",
                                                    obs::Det::kTiming)) {
    if (centroids.empty())
      throw std::invalid_argument("serve: centroids are empty");
    if (fopts.queue_depth < 1)
      throw std::invalid_argument("serve: queue_depth must be >= 1");
    if (fopts.batch_window < 1)
      throw std::invalid_argument("serve: batch_window must be >= 1");
    pack.pack(centroids);
    ids.resize(static_cast<std::size_t>(centroids.rows()));
    std::iota(ids.begin(), ids.end(), cluster_t{0});
    for (auto& s : scratch)
      s.resize(static_cast<std::size_t>(centroids.rows()));
    dispatcher = std::thread([this] { dispatch_loop(); });
  }

  std::future<Response> submit(ConstMatrixView rows, int m);
  Response assign_now(ConstMatrixView rows);
  void dispatch_loop();
  void execute(std::vector<std::unique_ptr<Pending>>& batch);
  void close();

  Options opts;
  FrontEndOptions fopts;
  DenseMatrix centroids;
  numa::Topology topo;
  int threads;
  sched::Scheduler sched;
  kernels::CentroidPack pack;
  /// Resolved once at construction (the per-selected-ISA determinism
  /// contract, same as AssignServer).
  const kernels::Ops* ops;

  BoundedQueue<std::unique_ptr<Pending>> queue;
  std::thread dispatcher;
  /// Serializes scheduler use between the dispatcher and assign_now()
  /// callers — the Scheduler's chunk phase is single-driver.
  std::mutex compute_mu;
  std::mutex close_mu;
  std::atomic<bool> closed{false};

  /// Centroid ids 0..k-1: the list a top-m row's dist_sq_list call names.
  std::vector<cluster_t> ids;
  /// Per-worker k squared distances for top-m selection.
  std::vector<std::vector<value_t>> scratch;
  /// Mega-batch row maps, reused across batches (dispatcher-only).
  std::vector<const value_t*> row_ptr;
  std::vector<std::uint32_t> row_req;
  std::vector<index_t> row_idx;

  std::atomic<std::uint64_t> submitted{0}, completed{0}, shed{0}, batches{0},
      rows_total{0};

  obs::Counter& m_requests;
  obs::Counter& m_rows;
  obs::Counter& m_topm;
  obs::Counter& m_shed;
  obs::Counter& m_batches;
  obs::Histogram& m_batch_rows;
  obs::Histogram& m_queue_wait;
  obs::Histogram& m_compute;
  obs::Histogram& m_request;
};

std::future<Response> QueryFrontEnd::Impl::submit(ConstMatrixView rows,
                                                  int m) {
  if (rows.rows() == 0)
    throw std::invalid_argument("serve: empty request");
  if (rows.cols() != centroids.cols())
    throw std::invalid_argument(
        "serve: query d=" + std::to_string(rows.cols()) +
        " != centroid d=" + std::to_string(centroids.cols()));
  if (m < 0 || m > static_cast<int>(centroids.rows()))
    throw std::invalid_argument("serve: top-m m=" + std::to_string(m) +
                                " out of [1, k=" +
                                std::to_string(centroids.rows()) + "]");
  submitted.fetch_add(1, std::memory_order_relaxed);
  rows_total.fetch_add(rows.rows(), std::memory_order_relaxed);
  m_requests.inc();
  m_rows.add(rows.rows());
  if (m > 0) m_topm.inc();

  auto p = std::make_unique<Pending>();
  p->rows = rows;
  p->m = m;
  p->t_submit = Clock::now();
  const auto n = static_cast<std::size_t>(rows.rows());
  p->resp.m = m;
  p->resp.assign.resize(n);
  p->resp.dist_sq.resize(n);
  if (m > 0) p->resp.topm.resize(n * static_cast<std::size_t>(m));
  std::future<Response> future = p->promise.get_future();

  const auto outcome =
      queue.push(std::move(p), fopts.shed_policy == ShedPolicy::kBlock);
  if (outcome != BoundedQueue<std::unique_ptr<Pending>>::Push::kOk) {
    // Shed (queue full under kShed, or front end closed): resolve the
    // future immediately with an empty shed response.
    shed.fetch_add(1, std::memory_order_relaxed);
    m_shed.inc();
    std::promise<Response> rejected;
    Response r;
    r.shed = true;
    r.m = m;
    rejected.set_value(std::move(r));
    return rejected.get_future();
  }
  return future;
}

void QueryFrontEnd::Impl::dispatch_loop() {
  std::vector<std::unique_ptr<Pending>> batch;
  std::unique_ptr<Pending> p;
  while (queue.pop(p)) {
    batch.clear();
    index_t rows = p->rows.rows();
    batch.push_back(std::move(p));
    // Coalesce whatever is already queued, up to the batching window. A
    // request is never split, so one oversized request closes the window
    // by itself. Between drains, linger cooperatively: yield once so
    // runnable submitters get a scheduling round, and keep going only
    // while that round actually produced another request — no timed wait,
    // so an isolated request still dispatches with ~no added latency.
    while (rows < fopts.batch_window) {
      while (rows < fopts.batch_window && queue.try_pop(p)) {
        rows += p->rows.rows();
        batch.push_back(std::move(p));
      }
      if (rows >= fopts.batch_window) break;
      std::this_thread::yield();
      if (!queue.try_pop(p)) break;
      rows += p->rows.rows();
      batch.push_back(std::move(p));
    }
    execute(batch);
  }
}

void QueryFrontEnd::Impl::execute(
    std::vector<std::unique_ptr<Pending>>& batch) {
  const Clock::time_point t_dispatch = Clock::now();
  index_t total = 0;
  for (const auto& q : batch) total += q->rows.rows();
  row_ptr.resize(static_cast<std::size_t>(total));
  row_req.resize(static_cast<std::size_t>(total));
  row_idx.resize(static_cast<std::size_t>(total));
  std::size_t at = 0;
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    const ConstMatrixView& v = batch[qi]->rows;
    for (index_t r = 0; r < v.rows(); ++r, ++at) {
      row_ptr[at] = v.row(r);
      row_req[at] = static_cast<std::uint32_t>(qi);
      row_idx[at] = r;
    }
  }

  const kernels::Ops& K = *ops;
  const int k = static_cast<int>(centroids.rows());
  const Clock::time_point t0 = Clock::now();
  {
    obs::Span span("serve_batch");
    std::lock_guard<std::mutex> lock(compute_mu);
    sched.parallel_for(
        total, opts.task_size, nullptr,
        [&](int tid, const sched::Task& task) {
          auto& sc = scratch[static_cast<std::size_t>(tid)];
          for (index_t g = task.begin; g < task.end; ++g) {
            Pending& q = *batch[row_req[static_cast<std::size_t>(g)]];
            const value_t* row = row_ptr[static_cast<std::size_t>(g)];
            const auto rr =
                static_cast<std::size_t>(row_idx[static_cast<std::size_t>(g)]);
            if (q.m == 0) {
              q.resp.assign[rr] =
                  K.nearest_blocked(row, pack, &q.resp.dist_sq[rr]);
            } else {
              // All k distances in one dist_sq_list call (each bitwise
              // equal to dist_sq and to nearest_blocked's values), then
              // the m least by (dist_sq, index) — the serial oracle order.
              K.dist_sq_list(row, pack, ids.data(), k, sc.data());
              TopEntry* top = &q.resp.topm[rr * static_cast<std::size_t>(q.m)];
              select_top(sc.data(), k, q.m, top);
              q.resp.assign[rr] = top[0].cluster;
              q.resp.dist_sq[rr] = top[0].dist_sq;
            }
          }
        });
  }
  const double compute_s = secs_between(t0, Clock::now());

  batches.fetch_add(1, std::memory_order_relaxed);
  m_batches.inc();
  m_batch_rows.record(total);
  m_compute.record(to_us(compute_s));
  const Clock::time_point t_done = Clock::now();
  for (auto& q : batch) {
    q->resp.queue_wait_s = secs_between(q->t_submit, t_dispatch);
    q->resp.compute_s = compute_s;
    q->resp.total_s = secs_between(q->t_submit, t_done);
    q->resp.batch_rows = total;
    m_queue_wait.record(to_us(q->resp.queue_wait_s));
    m_request.record(to_us(q->resp.total_s));
    completed.fetch_add(1, std::memory_order_relaxed);
    q->promise.set_value(std::move(q->resp));
  }
}

Response QueryFrontEnd::Impl::assign_now(ConstMatrixView rows) {
  if (rows.rows() == 0)
    throw std::invalid_argument("serve: empty request");
  if (rows.cols() != centroids.cols())
    throw std::invalid_argument(
        "serve: query d=" + std::to_string(rows.cols()) +
        " != centroid d=" + std::to_string(centroids.cols()));
  submitted.fetch_add(1, std::memory_order_relaxed);
  rows_total.fetch_add(rows.rows(), std::memory_order_relaxed);
  m_requests.inc();
  m_rows.add(rows.rows());
  if (closed.load(std::memory_order_acquire)) {
    shed.fetch_add(1, std::memory_order_relaxed);
    m_shed.inc();
    Response r;
    r.shed = true;
    return r;
  }

  const Clock::time_point t_submit = Clock::now();
  Response resp;
  const auto n = static_cast<std::size_t>(rows.rows());
  resp.assign.resize(n);
  resp.dist_sq.resize(n);
  const kernels::Ops& K = *ops;
  {
    std::lock_guard<std::mutex> lock(compute_mu);
    sched.parallel_for(rows.rows(), opts.task_size, nullptr,
                       [&](int, const sched::Task& task) {
                         for (index_t r = task.begin; r < task.end; ++r)
                           resp.assign[static_cast<std::size_t>(r)] =
                               K.nearest_blocked(
                                   rows.row(r), pack,
                                   &resp.dist_sq[static_cast<std::size_t>(r)]);
                       });
  }
  const Clock::time_point t_done = Clock::now();
  resp.compute_s = secs_between(t_submit, t_done);
  resp.total_s = resp.compute_s;
  resp.batch_rows = rows.rows();
  batches.fetch_add(1, std::memory_order_relaxed);
  m_batches.inc();
  m_batch_rows.record(rows.rows());
  m_compute.record(to_us(resp.compute_s));
  m_queue_wait.record(0);
  m_request.record(to_us(resp.total_s));
  completed.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

void QueryFrontEnd::Impl::close() {
  closed.store(true, std::memory_order_release);
  queue.close();
  std::lock_guard<std::mutex> lock(close_mu);
  if (dispatcher.joinable()) dispatcher.join();
}

QueryFrontEnd::QueryFrontEnd(const DenseMatrix& centroids, const Options& opts,
                             const FrontEndOptions& fopts)
    : impl_(std::make_unique<Impl>(centroids, opts, fopts)) {}

QueryFrontEnd::~QueryFrontEnd() { close(); }

int QueryFrontEnd::k() const {
  return static_cast<int>(impl_->centroids.rows());
}
index_t QueryFrontEnd::d() const { return impl_->centroids.cols(); }
const kernels::Ops& QueryFrontEnd::ops() const { return *impl_->ops; }

std::future<Response> QueryFrontEnd::submit_assign(ConstMatrixView rows) {
  return impl_->submit(rows, 0);
}

std::future<Response> QueryFrontEnd::submit_topm(ConstMatrixView rows, int m) {
  if (m < 1)
    throw std::invalid_argument("serve: top-m m must be >= 1");
  return impl_->submit(rows, m);
}

Response QueryFrontEnd::assign_now(ConstMatrixView rows) {
  return impl_->assign_now(rows);
}

void QueryFrontEnd::close() { impl_->close(); }

FrontEndStats QueryFrontEnd::stats() const {
  FrontEndStats s;
  s.submitted = impl_->submitted.load(std::memory_order_relaxed);
  s.completed = impl_->completed.load(std::memory_order_relaxed);
  s.shed = impl_->shed.load(std::memory_order_relaxed);
  s.blocked = impl_->queue.blocked();
  s.batches = impl_->batches.load(std::memory_order_relaxed);
  s.rows = impl_->rows_total.load(std::memory_order_relaxed);
  s.max_queue_depth = impl_->queue.max_occupancy();
  return s;
}

}  // namespace knor::serve
