// High-throughput assignment serving over frozen centroids (DESIGN.md §9).
//
// After training (any engine) or streaming ingestion (StreamEngine), the
// serving question is "which cluster is this point in?" at the highest
// rate the hardware allows. AssignServer packs the centroids once into a
// kernels::CentroidPack and answers queries with the register-blocked
// nearest_blocked kernel on the work-stealing scheduler:
//
//   * assign()      — one in-memory batch, parallel over rows.
//   * assign_file() — an arbitrarily large on-disk .kmat query file,
//     streamed through a bounded ring of I/O buffers (two queues of slot
//     indices, common/bounded_queue.hpp): a reader thread prefetches batch
//     i+1 (from data/matrix_io or a sem::PageFile) while the scheduler
//     assigns batch i. The ring is the backpressure: when
//     compute falls behind, the reader blocks on a free buffer instead of
//     buffering the file in memory; memory stays O(io_buffers *
//     batch_rows * d) no matter how large the file is.
//
// Assignments are elementwise (each row independent against frozen
// centroids), so results are bitwise-deterministic for the selected SIMD
// ISA regardless of thread count, batch size, source or buffer depth; the
// served histogram is integer-accumulated and equally deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/dense_matrix.hpp"
#include "common/types.hpp"
#include "core/kmeans_types.hpp"
#include "sem/checkpoint.hpp"

namespace knor::stream {

struct AssignOptions {
  /// Rows per streamed I/O batch (the serving granularity).
  index_t batch_rows = 1 << 14;
  /// How the reader pulls rows off disk: whole-row reads through
  /// data/matrix_io, or page-granular reads through a sem::PageFile (the
  /// SEM substrate; rows are served zero-copy out of the page extent).
  enum class Source { kMatrixIo, kPageFile };
  Source source = Source::kMatrixIo;
  /// Page size for Source::kPageFile.
  std::size_t page_size = 4096;
  /// In-flight batch buffers, used as given: 1 reads and assigns in turn,
  /// 2 or more overlap I/O with compute. The bound is what makes ingestion
  /// backpressured. Values below 1 throw std::invalid_argument.
  int io_buffers = 2;
};

/// Serving statistics for one assign_file() call. `rows`, `batches` and
/// `bytes_read` are deterministic; the wait/wall fields are timings.
///
/// The consumer-side buckets partition the serve: every consumer wait is
/// charged to exactly one of `compute_wait_s` (stalled mid-stream for the
/// next batch — the I/O-bound signal) or `drain_s` (the final wait after
/// the last batch, for the reader's done announcement — NOT an I/O stall,
/// it was once misattributed to compute_wait), and `compute_s` covers the
/// assign + sink work between waits. The intervals are disjoint slices of
/// one thread's wall time, so compute_wait_s + compute_s + drain_s <=
/// wall_s always (the remainder is loop bookkeeping); tests/stream_test
/// pins the reconciliation. `io_stall_s` is on the READER thread and
/// overlaps the consumer buckets — it is a backpressure signal, not a
/// slice of wall_s.
struct AssignStats {
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
  std::uint64_t bytes_read = 0;
  double wall_s = 0;          ///< whole serve, open to last sink call
  double compute_wait_s = 0;  ///< assigner stalled waiting for data (I/O-bound)
  double compute_s = 0;       ///< assign + sink work on the consumer
  double drain_s = 0;         ///< final wait for the reader's done signal
  double io_stall_s = 0;      ///< reader blocked on a free buffer (backpressure)

  double rows_per_sec() const { return wall_s > 0 ? rows / wall_s : 0.0; }
};

class AssignServer {
 public:
  /// Freeze `centroids` (k x d) for serving. `opts` supplies threads,
  /// NUMA/scheduler policy and SIMD selection.
  AssignServer(const DenseMatrix& centroids, const Options& opts);
  /// Serve from a stream/SEM snapshot's centroids.
  AssignServer(const sem::Checkpoint& snapshot, const Options& opts);
  ~AssignServer();

  AssignServer(const AssignServer&) = delete;
  AssignServer& operator=(const AssignServer&) = delete;

  int k() const;
  index_t d() const;

  /// Assign one in-memory batch: out[i] = nearest centroid of row i
  /// (out_sq[i] = its squared distance when non-null). Parallel over rows.
  void assign(ConstMatrixView queries, cluster_t* out,
              value_t* out_sq = nullptr);

  /// Row-order delivery of a streamed file's assignments: called once per
  /// batch with the batch's first row index and `count` assignments.
  using Sink =
      std::function<void(index_t first_row, const cluster_t* assign,
                         index_t count)>;

  /// Stream-assign every row of a .kmat file. The sink may be empty
  /// (histogram-only serving). Throws on malformed files; the reader
  /// thread's errors are rethrown on the calling thread.
  AssignStats assign_file(const std::string& path, const AssignOptions& aopts,
                          const Sink& sink = {});

  /// Rows served per cluster across every assign()/assign_file() call.
  const std::vector<std::int64_t>& served_histogram() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace knor::stream
