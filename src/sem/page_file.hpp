// Page-granular access to an on-disk .kmat matrix — the "SSD array" of the
// SEM substrate (SAFS-lite, DESIGN.md §1).
//
// Mirrors the paper's FlashGraph page_row design (§6.1): a row's location on
// disk is *computed* (header + r * row_bytes), so no in-memory index of row
// positions is needed — the O(n) saving that lets knors scale.
//
// An optional SSD cost model (latency per request + bandwidth) lets benches
// reproduce I/O-bound behaviour on a local filesystem whose page cache would
// otherwise hide device latency. Tests leave it disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace knor::sem {

struct SsdCostModel {
  std::uint32_t latency_us = 0;  ///< charged per read request (0 = off)
  double gigabytes_per_sec = 0;  ///< charged per byte (0 = off)
  bool enabled() const { return latency_us > 0 || gigabytes_per_sec > 0; }
};

class PageFile {
 public:
  /// Open a .kmat file for page reads. Throws on malformed files.
  PageFile(const std::string& path, std::size_t page_size = 4096,
           SsdCostModel cost = {});
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  index_t n() const { return n_; }
  index_t d() const { return d_; }
  std::size_t page_size() const { return page_size_; }
  std::size_t row_bytes() const { return row_bytes_; }
  std::uint64_t num_pages() const { return num_pages_; }

  /// Byte offset of row r in the file (computed, never stored).
  std::uint64_t row_offset(index_t r) const {
    return header_bytes_ + static_cast<std::uint64_t>(r) * row_bytes_;
  }
  /// First and last page touched by row r.
  std::uint64_t first_page_of_row(index_t r) const {
    return row_offset(r) / page_size_;
  }
  std::uint64_t last_page_of_row(index_t r) const {
    return (row_offset(r) + row_bytes_ - 1) / page_size_;
  }

  /// Read `count` pages starting at `first_page` into buf (count*page_size
  /// bytes; the final page is zero-padded past the matrix's end). One
  /// pread — callers coalesce adjacent pages into extents to model SAFS
  /// request merging. Throws std::runtime_error when the file ends before
  /// the matrix does (it shrank after it was opened). Thread-safe. Returns
  /// bytes read from the device.
  std::size_t read_pages(std::uint64_t first_page, std::uint32_t count,
                         unsigned char* buf);

  /// Device-level counters (monotonic).
  std::uint64_t bytes_read() const { return bytes_read_.load(); }
  std::uint64_t read_requests() const { return read_requests_.load(); }
  void reset_stats() {
    bytes_read_ = 0;
    read_requests_ = 0;
  }

 private:
  int fd_ = -1;
  index_t n_ = 0;
  index_t d_ = 0;
  std::size_t page_size_;
  std::size_t row_bytes_ = 0;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t num_pages_ = 0;
  std::uint64_t header_bytes_ = 0;
  SsdCostModel cost_;
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> read_requests_{0};
};

}  // namespace knor::sem
