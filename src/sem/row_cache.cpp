#include "sem/row_cache.hpp"

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
  if (p.staging_index.size() >= rows_per_part_) return;  // budget exhausted
  const auto [it, inserted] = p.staging_index.try_emplace(
      r, p.staging_index.size());
  if (!inserted) return;
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
