// Asynchronous I/O engine with request merging — the FlashGraph/SAFS I/O
// layer of the SEM substrate.
//
// Responsibilities (paper §2 "FlashGraph ... merge I/O requests ... overlaps
// I/O with computation"):
//   * Request merging: a batch of row reads is translated to the set of
//     pages it touches; runs of pages within `merge_gap` of each other are
//     coalesced into single extent reads, amortizing device requests.
//   * Page cache integration: resident pages are served from PageCache;
//     only missing extents hit the device.
//   * Asynchrony: prefetch(rows) queues a batch (common/bounded_queue.hpp)
//     for a dedicated I/O thread, which stages the pages into the cache
//     while the compute thread works on the previous batch;
//     Ticket::wait() synchronizes and rethrows a staging failure.
//
// The engine never keeps per-row state — row -> page geometry is computed
// from the PageFile (the page_row design).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/types.hpp"
#include "sem/page_cache.hpp"
#include "sem/page_file.hpp"

namespace knor::sem {

class IoEngine {
 public:
  IoEngine(PageFile& file, PageCache& cache, int io_threads = 1,
           std::uint32_t merge_gap = 0);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Synchronously materialize rows `rows` into `out` (rows.size() x d).
  /// Serves from the page cache; missing pages are read as merged extents
  /// and inserted into the cache. Ascending rows cost one cache probe per
  /// page; rows in any other order are copied correctly, with more probes.
  /// Only device reads allocate.
  void fetch_rows(const std::vector<index_t>& rows, value_t* out);

  /// Handle for an in-flight prefetch.
  class Ticket {
   public:
    /// Block until the batch's pages are staged in the page cache, and
    /// rethrow the staging's error on the calling thread. A second call,
    /// or a call on a default-constructed ticket, returns at once.
    void wait() {
      if (done_.valid()) done_.get();
    }

   private:
    friend class IoEngine;
    std::future<void> done_;
  };

  /// Asynchronously stage the pages of `rows` into the page cache. The
  /// engine's destructor still stages every batch queued before it.
  Ticket prefetch(std::vector<index_t> rows);

  /// Total bytes of row data callers asked for (the "requested" series of
  /// the paper's Figure 6).
  std::uint64_t bytes_requested() const { return bytes_requested_.load(); }
  void reset_stats() { bytes_requested_ = 0; }
  /// (row, page) pieces fetch_rows copied out of the page cache, and
  /// pieces it re-read because their page was evicted between staging and
  /// copy, over the engine's lifetime. Tallied once per call, not per
  /// piece.
  std::uint64_t page_hits() const { return page_hits_.load(); }
  std::uint64_t page_misses() const { return page_misses_.load(); }

 private:
  /// Load the missing pages of `rows` (merged extents) into the cache.
  void stage_pages(const std::vector<index_t>& rows);
  void io_loop();

  PageFile& file_;
  PageCache& cache_;
  std::uint32_t merge_gap_;
  std::atomic<std::uint64_t> bytes_requested_{0};
  std::atomic<std::uint64_t> page_hits_{0};
  std::atomic<std::uint64_t> page_misses_{0};

  BoundedQueue<std::packaged_task<void()>> queue_;
  std::vector<std::thread> io_threads_;
};

}  // namespace knor::sem
