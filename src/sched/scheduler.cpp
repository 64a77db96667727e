#include "sched/scheduler.hpp"

#include <cassert>
#include <stdexcept>

#include "numa/thread_bind.hpp"
#include "obs/registry.hpp"

namespace knor::sched {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kNumaAware: return "numa-aware";
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kStatic: return "static";
  }
  return "?";
}

index_t Scheduler::auto_task_size(index_t n) {
  if (n == 0) return kMinTaskSize;
  const index_t target = (n + kAutoChunkTarget - 1) / kAutoChunkTarget;
  return std::max(kMinTaskSize, std::min(kPaperTaskSize, target));
}

index_t Scheduler::resolve_task_size(index_t n, index_t requested) {
  // Floor both paths so the chunk grid (and the per-chunk accumulator
  // arrays the engines key off it) stays bounded: beyond kMaxChunks *
  // kPaperTaskSize rows even the adaptive size would exceed the cap.
  // Idempotent: resolving an already-resolved size returns it unchanged.
  const index_t floor = (n + kMaxChunks - 1) / kMaxChunks;
  return std::max(requested == 0 ? auto_task_size(n) : requested, floor);
}

Scheduler::Scheduler(int threads, const numa::Topology& topo, bool bind,
                     SchedPolicy policy)
    : topo_(topo), policy_(policy), bind_(bind), distance_(topo) {
  if (threads < 1) threads = 1;
  barrier_ = std::make_unique<Barrier>(threads);
  stats_.resize(static_cast<std::size_t>(threads));
  own_queue_.resize(static_cast<std::size_t>(threads));
  steal_order_.resize(static_cast<std::size_t>(threads));

  const int N = topo_.num_nodes();
  const int queues = policy_ == SchedPolicy::kFifo     ? 1
                     : policy_ == SchedPolicy::kStatic ? threads
                                                       : N;
  queues_.reserve(static_cast<std::size_t>(queues));
  for (int q = 0; q < queues; ++q)
    queues_.push_back(std::make_unique<ClaimQueue>());

  for (int t = 0; t < threads; ++t) {
    switch (policy_) {
      case SchedPolicy::kFifo:
        own_queue_[static_cast<std::size_t>(t)] = 0;
        break;
      case SchedPolicy::kStatic:
        own_queue_[static_cast<std::size_t>(t)] = t;
        break;
      case SchedPolicy::kNumaAware: {
        const int node = t % N;
        own_queue_[static_cast<std::size_t>(t)] = node;
        steal_order_[static_cast<std::size_t>(t)] =
            distance_.victim_order(node);
        break;
      }
    }
  }

  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void Scheduler::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  remaining_ = threads();
  first_error_ = nullptr;
  ++epoch_;
  cv_work_.notify_all();
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void Scheduler::worker_loop(int id) {
  if (bind_) numa::bind_current_thread_to_node(topo_, node_of_thread(id));
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    std::exception_ptr err;
    try {
      (*job)(id);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void Scheduler::begin_chunks(index_t n, index_t task_size,
                             const numa::Partitioner* parts) {
  assert(parts == nullptr || parts->threads() == threads());
  n_ = n;
  task_size_ = resolve_task_size(n, task_size);
  const index_t chunks = num_chunks(n, task_size_);
  if (chunks > static_cast<index_t>(UINT32_MAX))
    throw std::invalid_argument("Scheduler: task_size yields > 2^32 chunks");

  home_.assign(static_cast<std::size_t>(chunks), 0);
  for (auto& q : queues_) q->chunks.clear();

  const int T = threads();
  // Without a partitioner, deal chunks to threads in contiguous blocks
  // (the same block_range carve the partitioner applies to rows).
  int fallback_home = 0;
  for (index_t c = 0; c < chunks; ++c) {
    int home;
    if (parts != nullptr) {
      home = parts->thread_of_row(c * task_size_);
    } else {
      while (fallback_home + 1 < T &&
             numa::block_range(chunks, T, fallback_home).end <= c)
        ++fallback_home;
      home = fallback_home;
    }
    home_[static_cast<std::size_t>(c)] = home;
    const int q = policy_ == SchedPolicy::kFifo     ? 0
                  : policy_ == SchedPolicy::kStatic ? home
                                                    : node_of_thread(home);
    queues_[static_cast<std::size_t>(q)]->chunks.push_back(
        static_cast<std::uint32_t>(c));
  }
  for (auto& q : queues_) q->fill_done();
  // Chunk-grid size is a pure function of (n, task_size) — deterministic,
  // unlike the per-thread acquisition stats which follow the schedule.
  obs::Registry::global()
      .counter("sched.chunks", obs::Det::kDeterministic)
      .add(static_cast<std::uint64_t>(chunks));
}

void Scheduler::make_task(std::uint32_t chunk, int thread, Task& out) {
  out.chunk = chunk;
  out.begin = static_cast<index_t>(chunk) * task_size_;
  out.end = std::min(n_, out.begin + task_size_);
  out.home_thread = home_[chunk];
  out.home_node = node_of_thread(out.home_thread);

  auto& st = stats_[static_cast<std::size_t>(thread)].s;
  if (out.home_thread == thread)
    ++st.own;
  else if (out.home_node == node_of_thread(thread))
    ++st.same_node;
  else
    ++st.remote_node;
}

bool Scheduler::next_chunk(int thread, Task& out) {
  std::uint32_t c;
  auto& own = *queues_[static_cast<std::size_t>(
      own_queue_[static_cast<std::size_t>(thread)])];
  if (own.pop_front(c)) {
    make_task(c, thread, out);
    return true;
  }
  for (const int victim : steal_order_[static_cast<std::size_t>(thread)]) {
    if (queues_[static_cast<std::size_t>(victim)]->pop_back(c)) {
      make_task(c, thread, out);
      return true;
    }
  }
  return false;
}

void Scheduler::parallel_for(index_t n, index_t task_size,
                             const numa::Partitioner* parts,
                             const std::function<void(int, const Task&)>& body) {
  begin_chunks(n, task_size, parts);
  // A grid of at most one chunk runs on the caller's thread: waking the
  // workers would cost a fork/join for one chunk. The chunk is claimed as
  // its home thread, so the claim counts as `own` and kStatic (whose home
  // thread alone may claim it) still runs it.
  if (chunk_count() <= 1) {
    Task task;
    const int home = home_.empty() ? 0 : home_[0];
    if (next_chunk(home, task)) body(home, task);
    return;
  }
  run([&](int tid) {
    Task task;
    while (next_chunk(tid, task)) body(tid, task);
  });
}

StealStats Scheduler::stats(int thread) const {
  return stats_[static_cast<std::size_t>(thread)].s;
}

StealStats Scheduler::total_stats() const {
  StealStats total;
  for (const auto& ts : stats_) {
    total.own += ts.s.own;
    total.same_node += ts.s.same_node;
    total.remote_node += ts.s.remote_node;
  }
  return total;
}

void Scheduler::reset_stats() {
  for (auto& ts : stats_) ts.s = StealStats{};
}

}  // namespace knor::sched
