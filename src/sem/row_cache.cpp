#include "sem/row_cache.hpp"

#include <algorithm>
#include <cstring>

namespace knor::sem {

RowCache::RowCache(std::size_t capacity_bytes, index_t d, int partitions)
    : d_(d) {
  if (partitions < 1) partitions = 1;
  const std::size_t row_bytes = static_cast<std::size_t>(d) * sizeof(value_t);
  std::size_t total_rows = row_bytes == 0 ? 0 : capacity_bytes / row_bytes;
  rows_per_part_ = total_rows / static_cast<std::size_t>(partitions);
  if (rows_per_part_ == 0) rows_per_part_ = 1;
  parts_.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->staging_ids = numa::NodeBuffer<index_t>(rows_per_part_, /*node=*/-1);
    part->staging_slab = AlignedBuffer<value_t>(rows_per_part_ * d_);
    part->slab = AlignedBuffer<value_t>(rows_per_part_ * d_);
    part->staging_index.reserve(rows_per_part_ * 2);
    part->index.reserve(rows_per_part_ * 2);
    parts_.push_back(std::move(part));
  }
}

void RowCache::set_update_interval(int interval) {
  update_interval_ = interval < 1 ? 1 : interval;
  next_refresh_ = update_interval_;
}

RowCache::Mode RowCache::begin_iteration(int iter) {
  refreshing_ = iter == next_refresh_;
  if (refreshing_) {
    // Exponential back-off of refreshes: I, 2I, 4I, ...
    next_refresh_ *= 2;
    for (auto& p : parts_) p->staging_index.clear();
  }
  return refreshing_ ? Mode::kRefresh : Mode::kStatic;
}

const value_t* RowCache::lookup(int part, index_t r) const {
  const Partition& p = *parts_[static_cast<std::size_t>(part)];
  const auto it = p.index.find(r);
  return it == p.index.end() ? nullptr : p.slab.data() + it->second * d_;
}

void RowCache::offer(int part, index_t r, const value_t* row_data) {
  if (!refreshing_) return;
  Partition& p = *parts_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.staging_mu);
  index_t* heap = p.staging_ids.data();
  const std::size_t staged = p.staging_index.size();
  const bool full = staged >= rows_per_part_;
  // A full partition keeps only ids below its largest staged one; every
  // staged id is <= the top, so this also rejects nothing already staged.
  if (full && r > heap[0]) return;
  const auto [it, inserted] = p.staging_index.try_emplace(r, staged);
  if (!inserted) return;  // offered twice
  if (full) {
    // r takes the largest staged id's slot and heap position.
    std::pop_heap(heap, heap + staged);
    const auto evicted = p.staging_index.find(heap[staged - 1]);
    it->second = evicted->second;
    p.staging_index.erase(evicted);
    heap[staged - 1] = r;
    std::push_heap(heap, heap + staged);
  } else {
    heap[staged] = r;
    std::push_heap(heap, heap + staged + 1);
  }
  std::memcpy(p.staging_slab.data() + it->second * d_, row_data,
              static_cast<std::size_t>(d_) * sizeof(value_t));
}

void RowCache::publish() {
  if (!refreshing_) return;
  for (auto& p : parts_) {
    std::swap(p->index, p->staging_index);
    std::swap(p->slab, p->staging_slab);
    p->staging_index.clear();
  }
  refreshing_ = false;
}

std::size_t RowCache::resident_rows() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p->index.size();
  return total;
}

}  // namespace knor::sem
