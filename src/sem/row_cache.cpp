#include "sem/row_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace knor::sem {

RowCache::RowCache(std::size_t capacity_bytes, index_t d, int partitions)
    : d_(d) {
  if (partitions < 1) partitions = 1;
  const std::size_t row_bytes = static_cast<std::size_t>(d) * sizeof(value_t);
  std::size_t total_rows = row_bytes == 0 ? 0 : capacity_bytes / row_bytes;
  rows_per_part_ = total_rows / static_cast<std::size_t>(partitions);
  if (rows_per_part_ == 0) rows_per_part_ = 1;
  parts_.resize(static_cast<std::size_t>(partitions));
  for (Partition& p : parts_) {
    p.ids = numa::NodeBuffer<index_t>(rows_per_part_, /*node=*/-1);
    p.slab = AlignedBuffer<value_t>(rows_per_part_ * d_);
    p.staging_ids = numa::NodeBuffer<index_t>(rows_per_part_, /*node=*/-1);
    p.staging_slab = AlignedBuffer<value_t>(rows_per_part_ * d_);
  }
}

void RowCache::set_update_interval(int interval) {
  update_interval_ = interval < 1 ? 1 : interval;
  next_refresh_ = update_interval_;
}

RowCache::Mode RowCache::begin_iteration(int iter) {
  while (next_refresh_ < iter) next_refresh_ *= 2;
  refreshing_ = iter == next_refresh_;
  // Exponential back-off of refreshes: I, 2I, 4I, ...
  if (refreshing_) next_refresh_ *= 2;
  return refreshing_ ? Mode::kRefresh : Mode::kStatic;
}

RowCache::Slab RowCache::published(int part) const {
  const Partition& p = parts_[static_cast<std::size_t>(part)];
  return {p.ids.data(), p.size, p.slab.data()};
}

void RowCache::stage(int part, std::size_t rank, index_t r,
                     const value_t* row_data) {
  if (!refreshing_) return;
  assert(rank < rows_per_part_);
  Partition& p = parts_[static_cast<std::size_t>(part)];
  p.staging_ids[rank] = r;
  std::memcpy(p.staging_slab.data() + rank * d_, row_data,
              static_cast<std::size_t>(d_) * sizeof(value_t));
}

void RowCache::publish(const std::vector<std::uint64_t>& active_rows) {
  if (!refreshing_) return;
  assert(active_rows.size() == parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    Partition& p = parts_[i];
    std::swap(p.ids, p.staging_ids);
    std::swap(p.slab, p.staging_slab);
    p.size = static_cast<std::size_t>(
        std::min<std::uint64_t>(rows_per_part_, active_rows[i]));
  }
  refreshing_ = false;
}

std::size_t RowCache::resident_rows() const {
  std::size_t total = 0;
  for (const Partition& p : parts_) total += p.size;
  return total;
}

}  // namespace knor::sem
