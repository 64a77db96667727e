// Lazily-updated partitioned row cache (paper §6.2.2, Figure 3).
//
// Pins *active* rows (rows that needed I/O this iteration) in memory at row
// granularity — far more effective than a page cache for k-means, where MTI
// prunes rows near-randomly within pages (Figure 6).
//
// Laziness: the cache refreshes only at iterations I, 2I, 4I, 8I, ...
// (I = update_interval, paper default 5) and is static in between. The
// paper's justification: row activation patterns stabilize as centroids
// settle, so a stale cache still achieves near-100% hit rates (Figure 7)
// while costing almost no maintenance.
//
// Partitioning: one partition per compute thread, addressed by the row's
// *home* partition (the thread that owns the row's block), so a row always
// lands in the same partition regardless of which thread fetched it.
//
// Admission is by rank: a refresh keeps the first rows_per_part() active
// rows of each partition in ascending id order. The caller ranks every
// active row among its partition's active rows (DESIGN.md §4) and stages
// the row into slot `rank`. Slots are distinct, so concurrent staging needs
// no lock, and the staged set is a pure function of the iteration's active
// rows: which worker processes a row (a steal-order race) cannot change what
// is cached, and the deterministic hit and byte counters repeat exactly.
//
// Double buffering: each partition holds a published slab, read-only
// between publish() calls (which happen at single-threaded iteration
// boundaries), and a staging slab written during a refresh. publish() swaps
// them, so the published ids are always ascending and a chunk finds its
// hits with one binary search and a merge walk.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/types.hpp"
#include "numa/numa_alloc.hpp"

namespace knor::sem {

class RowCache {
 public:
  /// `capacity_bytes` is split evenly over `partitions` (= compute threads).
  RowCache(std::size_t capacity_bytes, index_t d, int partitions);

  /// Mode of the current iteration.
  enum class Mode {
    kStatic,   ///< serve lookups; no population
    kRefresh,  ///< flush and repopulate from this iteration's active rows
  };

  /// Called once (single-threaded) at the start of iteration `iter`
  /// (1-based). Returns kRefresh on the exponential schedule
  /// {I, 2I, 4I, ...}, else kStatic. A first call past a scheduled refresh
  /// (a resumed run) picks the schedule up at the next one. The published
  /// side keeps serving lookups until publish().
  Mode begin_iteration(int iter);

  /// A partition's published rows: `size` ids, ascending, and row i's data
  /// at `rows + i * d`.
  struct Slab {
    const index_t* ids = nullptr;
    std::size_t size = 0;
    const value_t* rows = nullptr;
  };
  /// Read-only view of partition `part`'s published rows; valid until the
  /// next publish().
  Slab published(int part) const;

  /// During a kRefresh iteration, stage active row `r` of partition `part`,
  /// whose rank among the partition's active rows in ascending id order is
  /// `rank` (< rows_per_part()), into staging slot `rank`. Ignored in a
  /// kStatic iteration.
  void stage(int part, std::size_t rank, index_t r, const value_t* row_data);

  /// End of a kRefresh iteration (single-threaded): `active_rows[p]` is
  /// partition p's active-row count, so its first min(rows_per_part(),
  /// active_rows[p]) slots were staged and become its published rows.
  void publish(const std::vector<std::uint64_t>& active_rows);

  /// Rows currently resident (published side).
  std::size_t resident_rows() const;
  std::size_t rows_per_part() const { return rows_per_part_; }
  std::size_t capacity_rows() const { return rows_per_part_ * parts_.size(); }
  /// Bytes the cache holds, all allocated at construction: a published and
  /// a staging slab, each with its ids.
  std::size_t bytes() const {
    return 2 * capacity_rows() *
           (static_cast<std::size_t>(d_) * sizeof(value_t) + sizeof(index_t));
  }
  int update_interval() const { return update_interval_; }
  void set_update_interval(int interval);

 private:
  // Both id arrays are mmap-backed: a malloc'd block here shifts where
  // glibc places the constructing thread's later large allocations
  // (DESIGN.md §4).
  struct Partition {
    // Published side (read-only between publish() calls): `size` rows.
    numa::NodeBuffer<index_t> ids;
    AlignedBuffer<value_t> slab;
    std::size_t size = 0;
    // Staging side: slot = rank among the partition's active rows.
    numa::NodeBuffer<index_t> staging_ids;
    AlignedBuffer<value_t> staging_slab;
  };

  index_t d_;
  std::size_t rows_per_part_;
  int update_interval_ = 5;
  // 64-bit: doubling past the last int iteration must not overflow.
  std::int64_t next_refresh_ = 5;
  bool refreshing_ = false;
  std::vector<Partition> parts_;
};

}  // namespace knor::sem
