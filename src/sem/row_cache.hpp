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
// lands in the same partition regardless of which thread fetched it. In the
// common case (no work stealing) population is partition-private; a
// per-partition mutex covers the stealing case. Published-side lookups are
// read-only and unlocked: the published structures are immutable between
// publish() calls, which happen at single-threaded iteration boundaries.
//
// Admission is by row id, not by arrival: a refresh stages the
// capacity_rows() / partitions smallest ids offered to each partition. The
// staged set is then a pure function of the iteration's active rows, so
// which worker offers a row first (a steal-order race) cannot change what
// is cached, and the deterministic hit and byte counters repeat exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
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
  /// {I, 2I, 4I, ...}, else kStatic. On kRefresh the staging side is
  /// cleared; the published side keeps serving lookups until publish().
  Mode begin_iteration(int iter);

  /// Read-only lookup in the published cache for row r, whose home
  /// partition is `part`. Returns the row's data or nullptr. Counts
  /// nothing: callers tally their own hits, so concurrent lookups share no
  /// written cache line.
  const value_t* lookup(int part, index_t r) const;

  /// During a kRefresh iteration, offer an active row just fetched. Kept
  /// while it is among the partition's smallest offered ids that fit the
  /// budget; a larger staged row is evicted to make room.
  void offer(int part, index_t r, const value_t* row_data);

  /// Publish the staged partitions (end of a kRefresh iteration,
  /// single-threaded).
  void publish();

  /// Rows currently resident (published side).
  std::size_t resident_rows() const;
  std::size_t capacity_rows() const { return rows_per_part_ * parts_.size(); }
  /// Bytes knors accounts for the cache: one row slab plus the staging id
  /// heaps, both allocated at construction.
  std::size_t bytes() const {
    return capacity_rows() * (static_cast<std::size_t>(d_) * sizeof(value_t) +
                              sizeof(index_t));
  }
  int update_interval() const { return update_interval_; }
  void set_update_interval(int interval);

 private:
  struct Partition {
    std::mutex staging_mu;
    // Staging side (written during refresh iterations). The first
    // staging_index.size() entries of staging_ids are the staged ids as a
    // max-heap, so the largest is the one evicted. The ids are mmap-backed:
    // a malloc'd block here shifts which later large allocations of the
    // constructing thread glibc serves from its heap (DESIGN.md §4).
    std::unordered_map<index_t, std::size_t> staging_index;
    numa::NodeBuffer<index_t> staging_ids;
    AlignedBuffer<value_t> staging_slab;
    // Published side (read-only between publish() calls).
    std::unordered_map<index_t, std::size_t> index;
    AlignedBuffer<value_t> slab;
  };

  index_t d_;
  std::size_t rows_per_part_;
  int update_interval_ = 5;
  int next_refresh_ = 5;
  bool refreshing_ = false;
  std::vector<std::unique_ptr<Partition>> parts_;
};

}  // namespace knor::sem
