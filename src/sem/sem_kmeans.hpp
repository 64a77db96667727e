// knors — semi-external-memory k-means (paper §6).
//
// Row data stays on "disk" (a PageFile); in-memory state is O(n):
// assignments, MTI upper bounds and active flags. Each iteration decides,
// per row and *before any data access*, whether MTI clause 1 proves the
// assignment unchanged — in which case no I/O request is issued (the
// paper's key SEM insight). Rows that do need data are served from the
// lazily-updated row cache, then the page cache, then merged-extent reads
// from the device, with batch prefetch overlapping I/O and compute.
//
// The iteration is knori's loop (detail::run_parallel_lloyd, DESIGN.md §7)
// over a row source that serves each chunk's clause-1 survivors in row
// order, so knors returns knori's exact bits. With MTI, centroids are
// maintained incrementally: persistent sums/counts receive membership
// deltas, so unchanged points contribute neither I/O nor computation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/kmeans_types.hpp"
#include "sem/page_file.hpp"

namespace knor::sem {

/// knors configuration: I/O substrate sizes plus the paper's row-cache and
/// checkpoint knobs. Plain data; every field has an independent default.
struct SemOptions {
  std::size_t page_size = 4096;           ///< minimum device read (paper: 4KB)
  std::size_t page_cache_bytes = 4 << 20; ///< SAFS-style page cache budget
  std::size_t row_cache_bytes = 1 << 20;  ///< row cache budget (0 disables)
  bool row_cache_enabled = true;          ///< knors vs knors-- switch
  int cache_update_interval = 5;          ///< I_cache (refresh at I, 2I, 4I, ...)
  int io_threads = 1;                     ///< async staging threads
  index_t io_batch_rows = 2048;           ///< rows per prefetch batch
  std::uint32_t merge_gap_pages = 0;      ///< request-merge tolerance
  SsdCostModel ssd;                       ///< optional device cost model
  // FlashGraph-style lightweight checkpointing (§2 of the paper; the
  // evaluation — and our benches — run with it disabled).
  std::string checkpoint_path;            ///< empty = disabled
  int checkpoint_interval = 0;            ///< checkpoint every N iterations
  bool resume = false;                    ///< restart from checkpoint_path
};

/// Per-iteration I/O accounting (drives Figures 6 and 7).
struct IterIo {
  std::uint64_t bytes_requested = 0;  ///< row bytes the algorithm asked for
  std::uint64_t bytes_read = 0;       ///< bytes actually read from device
  std::uint64_t device_requests = 0;  ///< merged-extent reads issued
  std::uint64_t row_cache_hits = 0;
  std::uint64_t active_rows = 0;      ///< rows needing data this iteration
};

/// Whole-run I/O accounting: one IterIo per executed iteration.
struct SemStats {
  std::vector<IterIo> per_iter;
  /// Sum of bytes_requested over all iterations.
  std::uint64_t total_requested() const;
  /// Sum of bytes_read over all iterations.
  std::uint64_t total_read() const;
  /// Sum of device_requests over all iterations.
  std::uint64_t total_device_requests() const;
};

/// Run knors over the .kmat file at `path`. Same Options semantics as
/// knor::kmeans (opts.prune toggles MTI -> knors vs knors-). Restrictions:
/// init must be kForgy or kProvided (streaming k-means++ is future work).
///
/// Determinism: the clustering (assignments, centroids, iteration count)
/// and the *demand-side* I/O statistics (bytes_requested, active_rows,
/// row_cache_hits) are pure functions of (file contents, opts, sem_opts);
/// the *supply-side* counters (bytes_read, device_requests) may vary
/// slightly between runs because concurrent workers can race to fault the
/// same page (see DESIGN.md §6's stat/timing split).
Result kmeans(const std::string& path, const Options& opts,
              const SemOptions& sem_opts, SemStats* stats = nullptr);

}  // namespace knor::sem
