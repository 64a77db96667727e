// Concurrent multi-client serving front end (DESIGN.md §11).
//
// Many client sessions submit assignment and top-m nearest-centroid
// requests against one frozen centroid set; the front end admits them
// through a bounded MPMC queue (common/bounded_queue.hpp — the bound is the
// backpressure; callers block or are shed per ShedPolicy), a dispatcher
// thread coalesces queued requests into SIMD-blocked mega-batches, the
// work-stealing scheduler computes each mega-batch with the blocked
// nearest-centroid kernel, and results are demuxed back to the submitting
// session through the per-request future.
//
// Determinism contract: every request's result depends only on its own
// rows, the frozen centroids and the selected SIMD ISA — never on what it
// was coalesced with. A mega-batch evaluates exactly `nearest_blocked(row,
// pack)` per assignment row and one `dist_sq_list` over all k centroids
// (bitwise equal to the ISA's `dist_sq` per centroid) for a top-m row,
// then selects its m least by insertion, so coalesced results are BITWISE
// identical to per-request serial evaluation across client counts, worker
// counts, batching windows and shed policies (tests/serve_test.cpp pins
// the full grid). Top-m orders by (dist_sq, centroid index) — ties break toward
// the lower index, matching nearest_blocked, so topm[0] always equals the
// assignment. What a window coalesces IS arrival-timing-dependent, so
// batch counts/sizes and every latency are kTiming metrics; only the
// client-driven totals (requests, rows) are kDeterministic.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "common/dense_matrix.hpp"
#include "common/types.hpp"
#include "core/kernels/simd.hpp"
#include "core/kmeans_types.hpp"

namespace knor::serve {

/// What a producer does when the admission queue is full.
enum class ShedPolicy {
  kBlock,  ///< wait for a slot (closed-loop clients; lossless)
  kShed,   ///< fail fast: the response comes back with shed=true
};

const char* to_string(ShedPolicy p);

struct FrontEndOptions {
  /// Admission-queue capacity in requests (the backpressure bound).
  std::size_t queue_depth = 256;
  /// Batching window: the dispatcher coalesces queued requests until the
  /// mega-batch holds >= batch_window rows. 1 = batching off (every
  /// request rides its own batch); a request's rows are never split
  /// across batches, so a window smaller than a request admits exactly
  /// that request.
  index_t batch_window = 4096;
  ShedPolicy shed_policy = ShedPolicy::kBlock;
};

/// One top-m entry: centroid index and squared distance, ascending by
/// (dist_sq, cluster) — the serial sorted-distance oracle order.
struct TopEntry {
  cluster_t cluster = 0;
  value_t dist_sq = 0;
};

/// A completed (or shed) request, delivered through the submit future.
struct Response {
  bool shed = false;               ///< true: never computed (queue full/closed)
  std::vector<cluster_t> assign;   ///< per row: nearest centroid
  std::vector<value_t> dist_sq;    ///< per row: its squared distance
  std::vector<TopEntry> topm;      ///< top-m rows: row-major m entries per row
  int m = 0;                       ///< entries per row in `topm` (0 = assign)
  double queue_wait_s = 0;         ///< admission to dispatch
  double compute_s = 0;            ///< the mega-batch compute it rode in
  double total_s = 0;              ///< admission to demux
  std::uint64_t batch_rows = 0;    ///< rows of that mega-batch
};

/// Front-end lifetime totals. Exact once close() has returned (workers
/// quiescent): submitted == completed + shed, and max_queue_depth never
/// exceeds FrontEndOptions::queue_depth — the stress-test invariants.
struct FrontEndStats {
  std::uint64_t submitted = 0;   ///< submit_* calls that entered admission
  std::uint64_t completed = 0;   ///< responses computed and demuxed
  std::uint64_t shed = 0;        ///< rejected: queue full (kShed) or closed
  std::uint64_t blocked = 0;     ///< submissions that waited for a slot
  std::uint64_t batches = 0;     ///< mega-batches executed (timing-dependent)
  std::uint64_t rows = 0;        ///< rows across submitted requests
  std::size_t max_queue_depth = 0;
};

class QueryFrontEnd {
 public:
  /// Freeze `centroids` (k x d) for serving. `opts` supplies the scheduler
  /// shape (threads, NUMA policy) and SIMD selection — resolved once here,
  /// like AssignServer, so the front end stays on one ISA for its life.
  QueryFrontEnd(const DenseMatrix& centroids, const Options& opts,
                const FrontEndOptions& fopts = {});
  /// close()s and joins.
  ~QueryFrontEnd();

  QueryFrontEnd(const QueryFrontEnd&) = delete;
  QueryFrontEnd& operator=(const QueryFrontEnd&) = delete;

  int k() const;
  index_t d() const;
  /// The resolved kernel table (tests build their oracle against it).
  const kernels::Ops& ops() const;

  /// Submit an assignment query over `rows` (n x d). The caller's buffer
  /// must stay valid until the future resolves. Thread-safe.
  std::future<Response> submit_assign(ConstMatrixView rows);
  /// Submit a top-m nearest-centroid query (1 <= m <= k).
  std::future<Response> submit_topm(ConstMatrixView rows, int m);

  /// Synchronous bypass: compute `rows` immediately on the calling thread's
  /// behalf, one request per call, no admission or coalescing (serialized
  /// internally — concurrent callers queue on a mutex). The
  /// one-request-per-call baseline the serve_closed bench compares against.
  Response assign_now(ConstMatrixView rows);

  /// Stop admitting (in-flight submissions are shed), drain every queued
  /// request, then join the dispatcher. Idempotent; the destructor calls
  /// it. Queued work is always completed, never dropped.
  void close();

  FrontEndStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A client session: a thin per-client handle that routes submissions to
/// the shared front end and keeps per-session totals (one session per
/// client thread; sessions are not internally synchronized, the front end
/// is). Responses demux to whichever session submitted them via the
/// returned future, so per-session ordering is the client's own submit
/// order.
class Session {
 public:
  explicit Session(QueryFrontEnd& fe) : fe_(&fe) {}

  std::future<Response> submit_assign(ConstMatrixView rows) {
    ++submitted_;
    rows_ += rows.rows();
    return fe_->submit_assign(rows);
  }
  std::future<Response> submit_topm(ConstMatrixView rows, int m) {
    ++submitted_;
    rows_ += rows.rows();
    return fe_->submit_topm(rows, m);
  }
  Response assign_now(ConstMatrixView rows) {
    ++submitted_;
    rows_ += rows.rows();
    return fe_->assign_now(rows);
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t rows() const { return rows_; }

 private:
  QueryFrontEnd* fe_;
  std::uint64_t submitted_ = 0;
  std::uint64_t rows_ = 0;
};

}  // namespace knor::serve
