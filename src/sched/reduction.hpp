// Fixed-association parallel tree reduction (the paper's "parallel
// funnelsort-like reduction routine", §5.2), run inside an existing worker
// context after the pre-merge barrier.
#pragma once

#include <cstddef>

#include "sched/barrier.hpp"

namespace knor::sched {

/// Fixed-association parallel fold of `count` slots into slot 0. The merge
/// tree is a pure function of `count` (round r merges slot i + stride into
/// slot i for i % (2 * stride) == 0); the `parties` workers only *execute*
/// the pairs — dealt round-robin, barrier between rounds — so the result is
/// bitwise identical for any thread count. This is what keeps the engines'
/// per-chunk centroid reductions deterministic under work stealing AND
/// across thread counts (chunk grids don't depend on T; see DESIGN.md §7).
/// Every worker must call it; merge(dst, src) combines slot src into dst.
template <typename MergeFn>
void tree_reduce_fixed(int tid, int parties, std::size_t count,
                       Barrier& barrier, MergeFn&& merge) {
  for (std::size_t stride = 1; stride < count; stride *= 2) {
    std::size_t pair = 0;
    for (std::size_t i = 0; i + stride < count; i += 2 * stride, ++pair)
      if (pair % static_cast<std::size_t>(parties) ==
          static_cast<std::size_t>(tid))
        merge(i, i + stride);
    barrier.arrive_and_wait();
  }
}

}  // namespace knor::sched
