// The serving half of every workload: open-loop latency at two fixed
// rates, closed-loop capacity, and a bulk assign_file pass, each response
// checked against a serial oracle built on the same ISA's kernels.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "knor/knor.hpp"
#include "support.hpp"

namespace pb {

/// Serving shape, the same in every workload (README.md, "Workloads").
inline constexpr int kServeWorkers = 2;   ///< QueryFrontEnd scheduler threads
inline constexpr int kBulkThreads = 2;    ///< AssignServer threads (+1 reader)

struct ServeResult {
  // Throughput per CPU-second of the whole process: closed loop (client
  // included) and bulk assign_file.
  double capacity_rows_per_cpu_s = 0, bulk_rows_per_cpu_s = 0;
  // The same in wall-clock terms, and open-loop latency.
  double capacity_rows_per_s = 0, bulk_rows_per_s = 0;
  double p50_light_ms = 0, p99_light_ms = 0;
  double p50_heavy_ms = 0, p99_heavy_ms = 0;
  // Layer: serve / loadgen / stream.
  double queue_wait_p99_ms = 0, compute_p99_ms = 0, batch_rows_mean = 0;
  double shed = 0, late_p50_ms = 0, late_p99_ms = 0;
  /// Heavy-window rows/s over the median closed-loop capacity.
  double heavy_load_frac = 0;
  double io_stall_s = 0, compute_wait_s = 0, batch_mean_ms = 0;
};

/// A QueryFrontEnd and an AssignServer over one frozen model, driven in
/// rounds so every serving number samples the whole run rather than one
/// stretch of it. Every response is counted in `rep` (a wrong or shed one
/// as failed).
class ServeBench {
 public:
  /// `bulk_path` is a .kmat whose row i equals pool row i % pool.rows();
  /// `heavy_rps` is the heavy window's request rate.
  ServeBench(const knor::DenseMatrix& centroids, const knor::DenseMatrix& pool,
             std::string bulk_path, double heavy_rps, std::uint64_t seed);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// One light window, one heavy window, one closed-loop window and one
  /// bulk pass.
  void round(Spans& spans, Report& rep);
  /// Medians over the rounds run so far, plus the registry slice since
  /// construction.
  ServeResult result() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Options every serving component is built with (threads, ISA).
knor::Options serve_options(int threads);

}  // namespace pb
