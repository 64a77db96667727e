// Kernel microbenchmarks, harness-native: the inner loops whose cost model
// explains the macro results — distance kernels, per-thread centroid
// accumulation and merge, MTI bookkeeping, task queue throughput, and the
// collective used by knord. The repo's one microbenchmark, with no
// dependency beyond the harness; every number here is nanoseconds, i.e. a
// timing.
#include <algorithm>
#include <string>
#include <vector>

#include "core/distance.hpp"
#include "core/kernels/simd.hpp"
#include "core/local_centroids.hpp"
#include "core/mti.hpp"
#include "dist/comm.hpp"
#include "harness/datasets.hpp"
#include "numa/partitioner.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace knor;
using namespace knor::bench;

DenseMatrix make_data(index_t n, index_t d) {
  data::GeneratorSpec spec;
  spec.n = n;
  spec.d = d;
  return data::generate(spec);
}

// Keep the optimizer from discarding a computed value.
volatile double g_sink = 0;

/// ns/op over `iters` calls of `op` (median of the context's repeats).
template <class Op>
TimingAgg per_op_ns(Context& ctx, std::size_t iters, Op&& op) {
  return ctx.measure([&] {
    const WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) op();
    return timer.elapsed() / static_cast<double>(iters) * 1e9;
  });
}

void run(Context& ctx) {
  // Smoke scale cuts the loop counts to a tenth; precision matters less
  // than speed there.
  const std::size_t base =
      ctx.scale() == Scale::kSmoke ? 20000 : 200000;
  ctx.config("loop_iters", static_cast<double>(base));

  for (const index_t d : {8u, 32u, 128u}) {
    const DenseMatrix m = make_data(2, d);
    const TimingAgg ns = per_op_ns(ctx, base, [&] {
      g_sink = dist_sq(m.row(0), m.row(1), d);
    });
    ctx.row().label("kernel", "dist_sq").label("arg", "d=" + std::to_string(d))
        .timing("ns_per_op", ns);
  }

  for (const int k : {10, 100}) {
    const index_t d = 16;
    const DenseMatrix point = make_data(1, d);
    const DenseMatrix centroids = make_data(static_cast<index_t>(k), d);
    value_t dist_out = 0;
    const TimingAgg ns = per_op_ns(ctx, base / 10, [&] {
      g_sink = nearest_centroid(point.row(0), centroids.data(), k, d,
                                &dist_out);
    });
    ctx.row().label("kernel", "nearest_centroid")
        .label("arg", "k=" + std::to_string(k))
        .timing("ns_per_op", ns);
  }

  // Per-ISA suites for the SIMD kernel layer: the dispatched dist_sq and
  // the blocked nearest-centroid kernel, each against the scalar
  // reference rows above. The speedup of nearest_blocked isa=avx2 (or
  // best) over isa=scalar at k=64 is the PR-4 acceptance number.
  for (const kernels::Isa isa : kernels::available_isas()) {
    const kernels::Ops& ops = kernels::ops_for(isa);
    const std::string tag = std::string(" isa=") + kernels::to_string(isa);
    for (const index_t d : {8u, 32u, 128u}) {
      const DenseMatrix m = make_data(2, d);
      const TimingAgg ns = per_op_ns(ctx, base, [&] {
        g_sink = ops.dist_sq(m.row(0), m.row(1), d);
      });
      ctx.row().label("kernel", "dist_sq_simd")
          .label("arg", "d=" + std::to_string(d) + tag)
          .timing("ns_per_op", ns);
    }
    for (const int k : {8, 64, 256}) {
      const index_t d = 32;  // mid-range d: the tile's target regime
      const DenseMatrix point = make_data(1, d);
      const DenseMatrix centroids = make_data(static_cast<index_t>(k), d);
      kernels::CentroidPack pack;
      pack.pack(centroids);
      value_t sq_out = 0;
      // Enough ops that the scalar-vs-vector ratio is stable even at
      // smoke scale (this ratio is a PR acceptance number).
      const std::size_t iters = std::max<std::size_t>(
          2000, base / (k > 64 ? 4 : 2));
      const TimingAgg ns = per_op_ns(ctx, iters, [&] {
        g_sink = ops.nearest_blocked(point.row(0), pack, &sq_out);
      });
      ctx.row().label("kernel", "nearest_blocked")
          .label("arg", "k=" + std::to_string(k) + tag)
          .timing("ns_per_op", ns);
    }
  }

  {
    const index_t d = 32;
    LocalCentroids acc(16, d);
    const DenseMatrix row = make_data(1, d);
    cluster_t c = 0;
    const TimingAgg ns = per_op_ns(ctx, base, [&] {
      acc.add(c, row.row(0));
      c = (c + 1) % 16;
    });
    ctx.row().label("kernel", "local_centroid_add").label("arg", "d=32")
        .timing("ns_per_op", ns);
  }

  {
    LocalCentroids a(100, 32), b(100, 32);
    const TimingAgg ns =
        per_op_ns(ctx, base / 100, [&] { a.merge(b); });
    ctx.row().label("kernel", "local_centroid_merge")
        .label("arg", "k=100 d=32")
        .timing("ns_per_op", ns);
  }

  for (const int k : {10, 100}) {
    const DenseMatrix cur = make_data(static_cast<index_t>(k), 32);
    DenseMatrix prev = cur;
    MtiState mti(1000, k);
    const TimingAgg ns = per_op_ns(ctx, base / 100, [&] {
      mti.prepare(prev, cur, kernels::ops());
    });
    ctx.row().label("kernel", "mti_prepare")
        .label("arg", "k=" + std::to_string(k))
        .timing("ns_per_op", ns);
  }

  {
    const auto topo = numa::Topology::simulated(4, 8);
    const numa::Partitioner parts(1 << 18, 8, topo);
    sched::Scheduler sched(8, topo, /*bind=*/false);
    const std::size_t tasks_per_drain = (1 << 18) / 8192;
    const TimingAgg ns = ctx.measure([&] {
      const std::size_t drains = 200;
      const WallTimer timer;
      for (std::size_t i = 0; i < drains; ++i) {
        sched.begin_chunks(1 << 18, 8192, &parts);
        sched::Task task;
        for (int t = 0; t < 8; ++t)
          while (sched.next_chunk(t, task))
            g_sink = static_cast<double>(task.begin);
      }
      return timer.elapsed() /
             static_cast<double>(drains * tasks_per_drain) * 1e9;
    });
    ctx.row().label("kernel", "ws_chunk_claim").label("arg", "8T, 32 tasks")
        .timing("ns_per_op", ns);
  }

  for (const std::size_t count : {320u, 3200u}) {
    const TimingAgg ns = ctx.measure([&] {
      // Time only the collective loop, inside the rank threads and behind a
      // barrier, so cluster spawn/join cost is not amortized into it.
      double inner_s = 0;
      dist::Cluster cluster(4);
      cluster.run([&](dist::Communicator& comm) {
        std::vector<double> payload(count, 1.0);
        comm.barrier();
        const WallTimer timer;
        for (int i = 0; i < 50; ++i)
          comm.allreduce_sum(payload.data(), payload.size());
        if (comm.rank() == 0) inner_s = timer.elapsed();
        g_sink = payload[0];
      });
      return inner_s / 50.0 * 1e9;
    });
    ctx.row().label("kernel", "allreduce_sum")
        .label("arg", std::to_string(count) + " doubles, 4 ranks")
        .timing("ns_per_collective", ns);
  }

  ctx.chart("ns_per_op");
}

const Registration reg({
    "kernels_micro",
    "Kernel microbenchmarks: the inner-loop cost model",
    "supporting data for every figure (no single paper exhibit)",
    "dist_sq cost grows linearly with d and nearest_centroid with k; MTI "
    "bookkeeping (mti_prepare) is O(k^2) yet amortizes to noise per point; "
    "a task-queue pop costs microseconds (cheap enough for 8192-point "
    "tasks); one small allreduce is far below a single iteration's compute "
    "— the reason knord's speedup stays near-linear. The per-ISA rows "
    "(dist_sq_simd, nearest_blocked) show the vector kernels beating the "
    "scalar reference, widest at moderate k where the register-blocked "
    "tile keeps the point in registers while centroid rows stream.",
    400, run});

}  // namespace
