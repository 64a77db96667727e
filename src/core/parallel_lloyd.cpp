// Non-template pieces of the parallel engine: counter aggregation and the
// human-readable result summary. The engine itself is the template in
// engine_impl.hpp, instantiated from knori.cpp (in-memory) and knord.cpp
// (per-rank shards).
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/strict_parse.hpp"
#include "core/kmeans_types.hpp"

namespace knor {

bool parse_gemm_tile(const std::string& name, GemmTile* out) {
  if (name == "auto") {
    *out = GemmTile{};
    return true;
  }
  const auto x = name.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= name.size()) return false;
  const auto parse_pos = [](const std::string& s, index_t* v) {
    std::uint64_t u = 0;
    if (!knor::parse_u64(s, &u) || u == 0) return false;
    *v = static_cast<index_t>(u);
    return true;
  };
  GemmTile tile;
  if (!parse_pos(name.substr(0, x), &tile.rows) ||
      !parse_pos(name.substr(x + 1), &tile.cols))
    return false;
  *out = tile;
  return true;
}

GemmTile parse_gemm_tile_or_throw(const std::string& name, const char* what) {
  GemmTile tile;
  if (!parse_gemm_tile(name, &tile))
    throw std::invalid_argument(std::string(what) + "=" + name +
                                " is not a GEMM tile (want auto or RxC with "
                                "positive integers, e.g. 64x256)");
  return tile;
}

GemmTile resolve_gemm_tile(GemmTile tile, index_t n, int k) {
  // Auto shape: 64 rows of A shared across each panel sweep, 256 centroids
  // per sweep — at the evaluation's d (8..64 doubles) that keeps the swept
  // centroid panels L2-resident while each row block amortizes their loads.
  if (tile.rows == 0) tile.rows = 64;
  if (tile.cols == 0) tile.cols = 256;
  if (tile.rows > n) tile.rows = n;
  const auto uk = static_cast<index_t>(k);
  if (tile.cols > uk) tile.cols = uk;
  // Whole panels only: round the centroid sweep up to the panel width.
  const index_t w = kernels::kGemmPanelWidth;
  tile.cols = (tile.cols + w - 1) / w * w;
  return tile;
}

Counters& Counters::operator+=(const Counters& o) {
  dist_computations += o.dist_computations;
  clause1_skips += o.clause1_skips;
  clause2_skips += o.clause2_skips;
  clause3_skips += o.clause3_skips;
  local_accesses += o.local_accesses;
  remote_accesses += o.remote_accesses;
  tasks_own += o.tasks_own;
  tasks_same_node += o.tasks_same_node;
  tasks_remote_node += o.tasks_remote_node;
  return *this;
}

double Result::makespan_per_iter() const {
  const std::size_t timed = iter_times.count();
  if (timed == 0) return 0.0;
  if (thread_busy_s.empty()) return iter_times.mean();
  double slowest = 0.0;
  for (double busy : thread_busy_s) slowest = std::max(slowest, busy);
  return (slowest + driver_serial_s) / static_cast<double>(timed);
}

std::string Result::summary() const {
  std::ostringstream oss;
  oss << "iters=" << iters << (converged ? " (converged)" : " (max-iters)")
      << " k=" << centroids.rows() << " energy=" << energy
      << " time/iter=" << iter_times.mean() * 1e3 << "ms"
      << " dists=" << counters.dist_computations
      << " c1-skips=" << counters.clause1_skips;
  return oss.str();
}

}  // namespace knor
