#include "core/mti.hpp"

#include <cmath>
#include <limits>

#include "core/kernels/simd.hpp"

namespace knor {

MtiState::MtiState(index_t n, int k)
    : k_(k),
      ub_(static_cast<std::size_t>(n)),
      c2c_(static_cast<std::size_t>(k) * k, 0),
      drift_(static_cast<std::size_t>(k), 0),
      s_half_(static_cast<std::size_t>(k), 0) {
  for (index_t i = 0; i < n; ++i)
    ub_[i] = std::numeric_limits<value_t>::infinity();
}

void MtiState::prepare(const DenseMatrix& prev, const DenseMatrix& cur,
                       const kernels::Ops& K) {
  const index_t d = cur.cols();
  // The triangle-inequality bookkeeping needs TRUE distances; these are
  // the only sqrts of the pruning machinery (kernels return squared).
  for (int a = 0; a < k_; ++a) {
    c2c_[static_cast<std::size_t>(a) * k_ + a] = 0;
    for (int b = a + 1; b < k_; ++b) {
      const value_t dab = std::sqrt(K.dist_sq(cur.row(static_cast<index_t>(a)),
                                              cur.row(static_cast<index_t>(b)),
                                              d));
      c2c_[static_cast<std::size_t>(a) * k_ + b] = dab;
      c2c_[static_cast<std::size_t>(b) * k_ + a] = dab;
    }
  }
  for (int a = 0; a < k_; ++a) {
    value_t m = std::numeric_limits<value_t>::infinity();
    for (int b = 0; b < k_; ++b) {
      if (b == a) continue;
      m = std::min(m, c2c_[static_cast<std::size_t>(a) * k_ + b]);
    }
    s_half_[static_cast<std::size_t>(a)] = k_ > 1 ? m * value_t(0.5) : 0;
  }
  if (prev.empty()) {
    std::fill(drift_.begin(), drift_.end(), value_t(0));
  } else {
    for (int c = 0; c < k_; ++c)
      drift_[static_cast<std::size_t>(c)] =
          std::sqrt(K.dist_sq(prev.row(static_cast<index_t>(c)),
                              cur.row(static_cast<index_t>(c)), d));
  }
}

namespace detail {

std::vector<value_t> checkpoint_bounds(const IterationView& view) {
  std::vector<value_t> bounds;
  if (view.mti == nullptr) return bounds;
  const std::vector<cluster_t>& assign = *view.assignments;
  bounds.resize(assign.size());
  for (std::size_t i = 0; i < assign.size(); ++i)
    bounds[i] = view.mti->ub(static_cast<index_t>(i)) +
                view.mti->drift(assign[i]);
  return bounds;
}

}  // namespace detail

}  // namespace knor
