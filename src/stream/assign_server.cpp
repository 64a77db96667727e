#include "stream/assign_server.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/aligned_buffer.hpp"
#include "common/bounded_queue.hpp"
#include "common/timer.hpp"
#include "core/kernels/simd.hpp"
#include "data/matrix_io.hpp"
#include "numa/topology.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sem/page_file.hpp"
#include "sched/scheduler.hpp"

namespace knor::stream {

struct AssignServer::Impl {
  Impl(const DenseMatrix& c, const Options& o)
      : opts(o),
        centroids(c),
        topo(o.numa_nodes > 0 ? numa::Topology::simulated(o.numa_nodes)
                              : numa::Topology::detect()),
        threads(o.threads > 0 ? o.threads : topo.num_cpus()),
        sched(threads, topo, /*bind=*/o.numa_aware && o.numa_bind, o.sched),
        histogram(static_cast<std::size_t>(c.rows()), 0),
        tcounts(static_cast<std::size_t>(threads),
                std::vector<std::int64_t>(static_cast<std::size_t>(c.rows()),
                                          0)),
        ops(&kernels::ops_for(o.simd)) {
    if (centroids.empty())
      throw std::invalid_argument("assign: centroids are empty");
    pack.pack(centroids);
  }

  void assign(ConstMatrixView queries, cluster_t* out, value_t* out_sq);

  Options opts;
  DenseMatrix centroids;
  numa::Topology topo;
  int threads;
  sched::Scheduler sched;
  kernels::CentroidPack pack;
  std::vector<std::int64_t> histogram;
  std::vector<std::vector<std::int64_t>> tcounts;
  /// Resolved once at construction: the server stays on one ISA for its
  /// whole life even if another engine retargets the process-global
  /// dispatch (the per-selected-ISA determinism contract).
  const kernels::Ops* ops;
};

void AssignServer::Impl::assign(ConstMatrixView queries, cluster_t* out,
                                value_t* out_sq) {
  if (queries.cols() != centroids.cols())
    throw std::invalid_argument("assign: query d=" +
                                std::to_string(queries.cols()) +
                                " != centroid d=" +
                                std::to_string(centroids.cols()));
  const kernels::Ops& K = *ops;
  for (auto& tc : tcounts) std::fill(tc.begin(), tc.end(), 0);
  sched.parallel_for(
      queries.rows(), opts.task_size, nullptr,
      [&](int tid, const sched::Task& task) {
        auto& tc = tcounts[static_cast<std::size_t>(tid)];
        for (index_t r = task.begin; r < task.end; ++r) {
          const cluster_t best = K.nearest_blocked(
              queries.row(r), pack, out_sq != nullptr ? &out_sq[r] : nullptr);
          out[r] = best;
          ++tc[best];
        }
      });
  // Integer merge in thread order: exact, so the histogram is
  // schedule-independent.
  for (const auto& tc : tcounts)
    for (std::size_t c = 0; c < histogram.size(); ++c) histogram[c] += tc[c];
}

AssignServer::AssignServer(const DenseMatrix& centroids, const Options& opts)
    : impl_(std::make_unique<Impl>(centroids, opts)) {}

AssignServer::AssignServer(const sem::Checkpoint& snapshot,
                           const Options& opts)
    : AssignServer(snapshot.centroids, opts) {}

AssignServer::~AssignServer() = default;

int AssignServer::k() const {
  return static_cast<int>(impl_->centroids.rows());
}
index_t AssignServer::d() const { return impl_->centroids.cols(); }

void AssignServer::assign(ConstMatrixView queries, cluster_t* out,
                          value_t* out_sq) {
  impl_->assign(queries, out, out_sq);
}

const std::vector<std::int64_t>& AssignServer::served_histogram() const {
  return impl_->histogram;
}

namespace {

/// One in-flight batch: rows [first_row, first_row + view.rows()). The
/// matrix_io source fills `mat`; the page source fills `pages` and points
/// the view straight into the extent (zero-copy).
struct BatchSlot {
  DenseMatrix mat;
  AlignedBuffer<unsigned char> pages;
  ConstMatrixView view;
  index_t first_row = 0;
};

}  // namespace

AssignStats AssignServer::assign_file(const std::string& path,
                                      const AssignOptions& aopts,
                                      const Sink& sink) {
  if (aopts.batch_rows < 1)
    throw std::invalid_argument("assign: batch_rows must be >= 1");
  if (aopts.io_buffers < 1)
    throw std::invalid_argument("assign: io_buffers must be >= 1");
  const auto S = static_cast<std::size_t>(aopts.io_buffers);
  const index_t d = impl_->centroids.cols();

  // Open the source up front on the calling thread so malformed files
  // throw here, not inside the reader; both handles then persist across
  // every batch (no per-batch open/validate).
  std::unique_ptr<sem::PageFile> pf;
  std::unique_ptr<data::RowReader> rr;
  index_t n = 0, file_d = 0;
  if (aopts.source == AssignOptions::Source::kPageFile) {
    if (aopts.page_size == 0 || aopts.page_size % sizeof(value_t) != 0)
      throw std::invalid_argument(
          "assign: page_size must be a positive multiple of the element "
          "size");
    pf = std::make_unique<sem::PageFile>(path, aopts.page_size);
    n = pf->n();
    file_d = pf->d();
  } else {
    rr = std::make_unique<data::RowReader>(path);
    n = rr->n();
    file_d = rr->d();
  }
  if (file_d != d)
    throw std::invalid_argument("assign: " + path + " has d=" +
                                std::to_string(file_d) +
                                ", centroids have d=" + std::to_string(d));
  // Clamp to the file: bounds the slot buffers (an oversized request would
  // otherwise overflow the page-extent sizing arithmetic) and keeps
  // batches/rows exact.
  const index_t batch_rows =
      std::min(aopts.batch_rows, std::max<index_t>(n, 1));

  std::vector<BatchSlot> slots(S);
  if (pf != nullptr) {
    // Worst-case pages per batch: the batch body plus one page of
    // leading/trailing slack from row/page misalignment.
    const std::size_t max_bytes =
        static_cast<std::size_t>(batch_rows) * pf->row_bytes() +
        2 * pf->page_size();
    const std::size_t max_pages =
        (max_bytes + pf->page_size() - 1) / pf->page_size();
    for (auto& slot : slots)
      slot.pages =
          AlignedBuffer<unsigned char>(max_pages * pf->page_size(),
                                       kCacheLine);
  }

  // The ring: a slot index travels from `free_slots` to the reader, which
  // fills the slot and passes it on in `filled_slots` to the assigner,
  // which serves it and returns it to `free_slots`. The reader closes
  // `filled_slots` when it is done or fails; the assigner closes both when
  // it fails.
  using SlotQueue = BoundedQueue<std::size_t>;
  SlotQueue free_slots(S), filled_slots(S);
  for (std::size_t s = 0; s < S; ++s) free_slots.push(s, /*block=*/true);
  std::exception_ptr reader_error;
  AssignStats stats;
  stats.batches = (n + batch_rows - 1) / batch_rows;

  std::thread reader([&] {
    try {
      for (index_t begin = 0; begin < n; begin += batch_rows) {
        const index_t end = std::min(n, begin + batch_rows);
        std::size_t s = 0;
        const WallTimer wait;
        const bool got = free_slots.pop(s);
        stats.io_stall_s += wait.elapsed();
        if (!got) break;  // the assigner failed
        BatchSlot& slot = slots[s];
        slot.first_row = begin;
        const index_t rows = end - begin;
        if (pf != nullptr) {
          const std::uint64_t first_page = pf->first_page_of_row(begin);
          const std::uint64_t last_page = pf->last_page_of_row(end - 1);
          pf->read_pages(first_page,
                         static_cast<std::uint32_t>(last_page - first_page +
                                                    1),
                         slot.pages.data());
          const std::size_t skew = static_cast<std::size_t>(
              pf->row_offset(begin) - first_page * pf->page_size());
          slot.view = ConstMatrixView(
              reinterpret_cast<const value_t*>(slot.pages.data() + skew),
              rows, d);
        } else {
          if (slot.mat.rows() < rows) slot.mat = DenseMatrix(rows, d);
          MutMatrixView out(slot.mat.data(), rows, d);
          rr->read(begin, end, out);
          slot.view = ConstMatrixView(slot.mat.data(), rows, d);
        }
        if (filled_slots.push(s, /*block=*/true) != SlotQueue::Push::kOk)
          break;  // the assigner failed
      }
    } catch (...) {
      reader_error = std::current_exception();
    }
    filled_slots.close();
  });

  // Serving metrics (DESIGN.md §10; the substrate for the SLO stats of
  // ROADMAP item 1): per-batch service latency as a p50/p99-extractable
  // histogram, plus the row/batch/byte totals. Rows, batches and the
  // matrix_io byte count replay deterministically; latency and the ring
  // stall/wait splits are wall-clock.
  using obs::Det;
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& batch_us =
      reg.histogram("stream.assign.batch_us", Det::kTiming);

  const WallTimer wall;
  std::vector<cluster_t> assignments(static_cast<std::size_t>(
      std::min<index_t>(n, batch_rows)));
  try {
    for (;;) {
      std::size_t s = 0;
      const WallTimer wait;
      if (!filled_slots.pop(s)) {
        // Nothing left to serve: this wait was for the reader's end (or
        // error), not for data — the drain bucket, not the I/O-bound
        // compute_wait signal.
        stats.drain_s += wait.elapsed();
        break;
      }
      stats.compute_wait_s += wait.elapsed();
      const BatchSlot& slot = slots[s];
      const index_t rows = slot.view.rows();
      const WallTimer work;
      {
        obs::Span span_assign("assign");
        const std::uint64_t t0 = obs::Tracer::now_us();
        impl_->assign(slot.view, assignments.data(), nullptr);
        batch_us.record(obs::Tracer::now_us() - t0);
      }
      stats.rows += rows;
      if (sink) sink(slot.first_row, assignments.data(), rows);
      stats.compute_s += work.elapsed();
      free_slots.push(s, /*block=*/true);
    }
  } catch (...) {
    free_slots.close();
    filled_slots.close();
    reader.join();
    throw;
  }
  reader.join();
  if (reader_error) std::rethrow_exception(reader_error);

  stats.wall_s = wall.elapsed();
  stats.bytes_read =
      pf != nullptr
          ? pf->bytes_read()
          : static_cast<std::uint64_t>(stats.rows) * d * sizeof(value_t);

  reg.counter("stream.assign.rows", Det::kDeterministic).add(stats.rows);
  reg.counter("stream.assign.batches", Det::kDeterministic)
      .add(stats.batches);
  // Page-sourced reads include row/page misalignment slack — still a pure
  // function of (file, page_size, batch_rows), so deterministic.
  reg.counter("stream.assign.bytes_read", Det::kDeterministic)
      .add(stats.bytes_read);
  reg.counter("stream.assign.compute_wait_us", Det::kTiming)
      .add(static_cast<std::uint64_t>(stats.compute_wait_s * 1e6));
  reg.counter("stream.assign.compute_us", Det::kTiming)
      .add(static_cast<std::uint64_t>(stats.compute_s * 1e6));
  reg.counter("stream.assign.drain_us", Det::kTiming)
      .add(static_cast<std::uint64_t>(stats.drain_s * 1e6));
  reg.counter("stream.assign.io_stall_us", Det::kTiming)
      .add(static_cast<std::uint64_t>(stats.io_stall_s * 1e6));
  return stats;
}

}  // namespace knor::stream
