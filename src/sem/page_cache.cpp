#include "sem/page_cache.hpp"

#include <cstring>
#include <limits>

namespace knor::sem {
namespace {
constexpr std::uint64_t kFreeSlot = std::numeric_limits<std::uint64_t>::max();
}

PageCache::PageCache(std::size_t capacity_bytes, std::size_t page_size,
                     int partitions)
    : page_size_(page_size == 0 ? 4096 : page_size) {
  if (partitions < 1) partitions = 1;
  capacity_pages_ = capacity_bytes / page_size_;
  if (capacity_pages_ < static_cast<std::size_t>(partitions))
    capacity_pages_ = static_cast<std::size_t>(partitions);
  const std::size_t per_part =
      capacity_pages_ / static_cast<std::size_t>(partitions);
  parts_.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->slot_page.assign(per_part, kFreeSlot);
    part->referenced.assign(per_part, 0);
    part->frames = AlignedBuffer<unsigned char>(per_part * page_size_);
    part->index.reserve(per_part * 2);
    parts_.push_back(std::move(part));
  }
  capacity_pages_ = per_part * static_cast<std::size_t>(partitions);
}

bool PageCache::copy_out(std::uint64_t page_id, const Range* ranges,
                         std::size_t count) {
  Partition& part = part_of(page_id);
  std::lock_guard<std::mutex> lock(part.mu);
  const auto it = part.index.find(page_id);
  if (it == part.index.end()) return false;
  part.referenced[it->second] = 1;
  const unsigned char* frame = part.frames.data() + it->second * page_size_;
  for (std::size_t i = 0; i < count; ++i)
    std::memcpy(ranges[i].dst, frame + ranges[i].offset, ranges[i].len);
  return true;
}

bool PageCache::contains(std::uint64_t page_id) {
  Partition& part = part_of(page_id);
  std::lock_guard<std::mutex> lock(part.mu);
  const auto it = part.index.find(page_id);
  if (it == part.index.end()) return false;
  part.referenced[it->second] = 1;
  return true;
}

void PageCache::insert(std::uint64_t page_id, const unsigned char* data) {
  Partition& part = part_of(page_id);
  std::lock_guard<std::mutex> lock(part.mu);
  auto it = part.index.find(page_id);
  if (it != part.index.end()) {
    std::memcpy(part.frames.data() + it->second * page_size_, data,
                page_size_);
    part.referenced[it->second] = 1;
    return;
  }
  // Clock eviction: advance the hand past referenced slots (clearing their
  // bit) until an unreferenced or free slot is found.
  const std::size_t slots = part.slot_page.size();
  std::size_t victim = part.hand;
  for (std::size_t step = 0; step < 2 * slots; ++step) {
    const std::size_t s = (part.hand + step) % slots;
    if (part.slot_page[s] == kFreeSlot || part.referenced[s] == 0) {
      victim = s;
      part.hand = (s + 1) % slots;
      break;
    }
    part.referenced[s] = 0;
  }
  if (part.slot_page[victim] != kFreeSlot)
    part.index.erase(part.slot_page[victim]);
  part.slot_page[victim] = page_id;
  part.referenced[victim] = 1;
  std::memcpy(part.frames.data() + victim * page_size_, data, page_size_);
  part.index[page_id] = victim;
}

void PageCache::clear() {
  for (auto& p : parts_) {
    std::lock_guard<std::mutex> lock(p->mu);
    p->index.clear();
    std::fill(p->slot_page.begin(), p->slot_page.end(), kFreeSlot);
    std::fill(p->referenced.begin(), p->referenced.end(), 0);
    p->hand = 0;
  }
}

}  // namespace knor::sem
