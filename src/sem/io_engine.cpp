#include "sem/io_engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace knor::sem {
namespace {

constexpr std::uint64_t kNoPage = std::numeric_limits<std::uint64_t>::max();

// Byte ranges gathered for one cache probe. A page holding more separate
// ranges than this is probed once per group.
constexpr std::size_t kMaxRanges = 64;

// Queued prefetches. Each worker holds one ticket at a time, so the queue
// holds at most one request per worker; past this many workers a
// prefetch waits for the I/O thread to take one.
constexpr std::size_t kPrefetchQueueDepth = 64;

}  // namespace

IoEngine::IoEngine(PageFile& file, PageCache& cache, int io_threads,
                   std::uint32_t merge_gap)
    : file_(file),
      cache_(cache),
      merge_gap_(merge_gap),
      queue_(kPrefetchQueueDepth) {
  if (io_threads < 1) io_threads = 1;
  io_threads_.reserve(static_cast<std::size_t>(io_threads));
  for (int t = 0; t < io_threads; ++t)
    io_threads_.emplace_back([this] { io_loop(); });
}

IoEngine::~IoEngine() {
  queue_.close();  // the I/O threads drain what is queued, then exit
  for (auto& t : io_threads_) t.join();
}

void IoEngine::stage_pages(const std::vector<index_t>& rows) {
  // Coalesce missing pages into extents: consecutive (or within merge_gap)
  // pages become one device read — SAFS-style request merging. Gap pages
  // inside a merged extent are read too (that is the fragmentation cost
  // Figure 6b quantifies: the device transfers more than was requested).
  const std::size_t page_size = file_.page_size();
  std::vector<unsigned char> buf;
  std::uint64_t first = kNoPage;  // open extent [first, last]
  std::uint64_t last = 0;
  const auto read_extent = [&] {
    if (first == kNoPage) return;
    const auto count = static_cast<std::uint32_t>(last - first + 1);
    buf.resize(static_cast<std::size_t>(count) * page_size);
    file_.read_pages(first, count, buf.data());
    for (std::uint32_t p = 0; p < count; ++p)
      cache_.insert(first + p,
                    buf.data() + static_cast<std::size_t>(p) * page_size);
    first = kNoPage;
  };
  // Ascending rows touch ascending pages; a page shared by neighbouring
  // rows repeats back to back and is visited once.
  std::uint64_t visited = kNoPage;
  for (const index_t r : rows) {
    for (std::uint64_t page = file_.first_page_of_row(r);
         page <= file_.last_page_of_row(r); ++page) {
      if (page == visited) continue;
      visited = page;
      if (cache_.contains(page)) {
        read_extent();
      } else if (first != kNoPage && page > last &&
                 page - last <= 1 + std::uint64_t{merge_gap_}) {
        last = page;
      } else {
        read_extent();
        first = last = page;
      }
    }
  }
  read_extent();
}

void IoEngine::fetch_rows(const std::vector<index_t>& rows, value_t* out) {
  if (rows.empty()) return;
  const std::size_t row_bytes = file_.row_bytes();
  bytes_requested_.fetch_add(rows.size() * row_bytes,
                             std::memory_order_relaxed);
  stage_pages(rows);

  // Copy the rows out page by page. Each (row, page) piece is a byte range
  // of that page — a row straddling pages, or wider than one, has a piece
  // on each — and pieces of adjacent rows merge into one range. One
  // copy_out probe copies all of a page's ranges.
  const std::size_t page_size = file_.page_size();
  auto* const dst = reinterpret_cast<unsigned char*>(out);
  PageCache::Range ranges[kMaxRanges];
  std::vector<unsigned char> page;  // miss fallback only
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t idx = 0;   // row being copied
  std::size_t done = 0;  // bytes of rows[idx] already copied
  while (idx < rows.size()) {
    const std::uint64_t page_id =
        (file_.row_offset(rows[idx]) + done) / page_size;
    const std::uint64_t page_begin = page_id * page_size;
    const std::uint64_t page_end = page_begin + page_size;
    std::size_t count = 0;
    std::uint64_t pieces = 0;
    while (idx < rows.size()) {
      const std::uint64_t row_begin = file_.row_offset(rows[idx]);
      const std::uint64_t from = row_begin + done;
      if (from < page_begin || from >= page_end) break;
      const std::uint64_t to = std::min(row_begin + row_bytes, page_end);
      const auto offset = static_cast<std::size_t>(from - page_begin);
      const auto len = static_cast<std::size_t>(to - from);
      if (count > 0 &&
          ranges[count - 1].offset + ranges[count - 1].len == offset) {
        // Starts where the last range ends: the next row, so it follows
        // that range in `out` too.
        ranges[count - 1].len += len;
      } else if (count == kMaxRanges) {
        break;
      } else {
        ranges[count++] = {offset, len, dst + idx * row_bytes + done};
      }
      ++pieces;
      if (to < row_begin + row_bytes) {  // the row goes on to the next page
        done += len;
        break;
      }
      ++idx;
      done = 0;
    }
    if (cache_.copy_out(page_id, ranges, count)) {
      hits += pieces;
      continue;
    }
    // Evicted between staging and copy (tiny cache): re-read directly.
    page.resize(page_size);
    file_.read_pages(page_id, 1, page.data());
    cache_.insert(page_id, page.data());
    for (std::size_t i = 0; i < count; ++i)
      std::memcpy(ranges[i].dst, page.data() + ranges[i].offset,
                  ranges[i].len);
    misses += pieces;
  }
  // Tallied once per call: workers share these counters' cache line.
  if (hits > 0) page_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses > 0) page_misses_.fetch_add(misses, std::memory_order_relaxed);
}

IoEngine::Ticket IoEngine::prefetch(std::vector<index_t> rows) {
  std::packaged_task<void()> stage(
      [this, rows = std::move(rows)] { stage_pages(rows); });
  Ticket ticket;
  ticket.done_ = stage.get_future();
  queue_.push(std::move(stage), /*block=*/true);
  return ticket;
}

void IoEngine::io_loop() {
  // A task keeps its staging failure for Ticket::wait() to rethrow.
  std::packaged_task<void()> stage;
  while (queue_.pop(stage)) stage();
}

}  // namespace knor::sem
