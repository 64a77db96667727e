// Partitioned clock page cache — the SAFS page-cache layer (§2, §6 of the
// paper): pins frequently touched pages in memory to reduce device reads.
//
// Pages hash to partitions; each partition is an independent clock (a.k.a.
// second-chance) cache behind its own lock, so concurrent compute and I/O
// threads rarely contend. Capacity is given in bytes and split evenly.
//
// Readers never see a frame: copy_out() copies the caller's byte ranges
// while the partition lock is held, because once it is released any
// thread's insert may evict the page and overwrite its frame.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.hpp"

namespace knor::sem {

class PageCache {
 public:
  PageCache(std::size_t capacity_bytes, std::size_t page_size,
            int partitions = 8);

  std::size_t page_size() const { return page_size_; }
  /// Total page slots across partitions.
  std::size_t capacity_pages() const { return capacity_pages_; }

  /// `len` bytes at byte `offset` within a page, to be copied to `dst`.
  struct Range {
    std::size_t offset;
    std::size_t len;
    unsigned char* dst;
  };

  /// If page `page_id` is resident, copy every one of `ranges` out of its
  /// frame under the partition lock, mark the page referenced and return
  /// true. Otherwise copy nothing and return false.
  bool copy_out(std::uint64_t page_id, const Range* ranges,
                std::size_t count);
  /// True when the page is resident (no copy, still marks referenced).
  bool contains(std::uint64_t page_id);
  /// Insert (or refresh) a page; evicts via clock within the partition.
  void insert(std::uint64_t page_id, const unsigned char* data);
  /// Drop everything (used between bench configurations).
  void clear();

 private:
  struct Partition {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::size_t> index;  // page -> slot
    std::vector<std::uint64_t> slot_page;  // slot -> page (UINT64_MAX free)
    std::vector<std::uint8_t> referenced;  // clock bits
    AlignedBuffer<unsigned char> frames;
    std::size_t hand = 0;
  };

  Partition& part_of(std::uint64_t page_id) {
    return *parts_[static_cast<std::size_t>(page_id) % parts_.size()];
  }

  std::size_t page_size_;
  std::size_t capacity_pages_;
  std::vector<std::unique_ptr<Partition>> parts_;
};

}  // namespace knor::sem
