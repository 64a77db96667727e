// Closed-loop serving throughput: 16 client threads driving a
// serve::QueryFrontEnd. The headline comparison is batched (window=4096)
// against the one-request-per-call baseline at the same client count: the
// queued path with the batching window at 1, where the dispatcher makes
// exactly one compute call per request. A 2-row request is one scheduler
// chunk, so that call runs on the dispatcher's own thread with no
// fork/join (DESIGN.md §7); what a mega-batch still amortizes is the
// per-call work around the kernel (the dispatcher's pop and compute-lock
// handoff, the obs span and histogram records), and a mega-batch of more
// than one chunk pays a fork/join of its own. So batching wins by tens of
// percent, not by the order of magnitude it bought while every call
// forked. The direct synchronous path (clients call assign_now
// themselves: no queue, no future, no fork/join) rides along as the
// reference for what admission itself costs, and is the fastest path.
//
// Stability note: each config is measured with one untimed warmup run and
// >=5 samples regardless of the harness repeat count — a single cold
// sample of a multi-threaded ~10ms wall on a small machine is noise. The
// acceptance ratio is computed from per-config MIN walls: on a shared
// (containerized) host a sample can absorb tens of milliseconds of
// preemption that has nothing to do with the code under test, and the
// minimum is the least-perturbed observation of each config.
#include <algorithm>
#include <string>
#include <vector>

#include "harness/datasets.hpp"
#include "serve/front_end.hpp"
#include "serve/loadgen.hpp"

namespace {

using namespace knor;
using namespace knor::bench;

void run(Context& ctx) {
  const ServeWorkload w = serve_workload(ctx);
  // Small requests are the point of admission batching: at 2 rows the
  // per-call overhead (not the kernel) dominates a window=1 dispatch, so
  // the coalescing win is visible; by ~8 rows the kernel share starts to
  // dilute it.
  const index_t rows_per_request = 2;
  // Row budget -> requests: smoke = 6000 requests, paper = 300k. Serving
  // walls are per-request-overhead bound, so the request count (not the
  // row count) is what buys a stable measurement.
  const auto requests = static_cast<std::uint64_t>(
      ctx.scaled(600000) / rows_per_request);
  ctx.config("requests", static_cast<double>(requests));
  ctx.config("rows_per_request", static_cast<double>(rows_per_request));

  Options opts;
  opts.k = static_cast<int>(w.centroids.rows());
  opts.seed = 1765;

  // Queued configs run a pipelined closed loop (4 in flight per client =
  // multiprogramming level 64, identical on both sides of the comparison)
  // so the client-side wakeup cost amortizes and the measured gap is the
  // per-compute-call overhead, which is what the window toggles. direct
  // is synchronous by construction — pipeline stays 1.
  struct Config {
    const char* path;
    int clients;
    bool direct;
    index_t window;
    int pipeline;
  };
  const Config configs[] = {
      {"direct (1 client)", 1, true, 1, 1},
      {"direct (16 clients, serialized)", 16, true, 1, 1},
      {"queued, window=1 (one call per request)", 16, false, 1, 4},
      {"queued, window=4096 (batched)", 16, false, 4096, 4},
  };

  const int samples = std::max(5, ctx.repeats());
  double window1_min = 0, batched_min = 0, direct16_min = 0;
  for (const Config& cfg : configs) {
    serve::FrontEndOptions fopts;
    fopts.batch_window = cfg.window;
    serve::LoadOptions lopts;
    lopts.clients = cfg.clients;
    lopts.requests = requests;
    lopts.rows_per_request = rows_per_request;
    lopts.direct = cfg.direct;
    lopts.pipeline = cfg.pipeline;
    lopts.seed = 42;

    serve::QueryFrontEnd fe(w.centroids, opts, fopts);
    serve::LoadStats last;
    (void)serve::run_closed_loop(fe, w.pool, lopts);  // warmup (untimed)
    std::vector<double> walls;
    walls.reserve(static_cast<std::size_t>(samples));
    for (int s = 0; s < samples; ++s) {
      last = serve::run_closed_loop(fe, w.pool, lopts);
      walls.push_back(last.wall_s);
    }
    const TimingAgg wall_s = TimingAgg::from_samples(std::move(walls));
    if (std::string(cfg.path) == "direct (16 clients, serialized)")
      direct16_min = wall_s.min;
    if (cfg.clients == 16 && !cfg.direct && cfg.window == 1)
      window1_min = wall_s.min;
    if (cfg.window == 4096) batched_min = wall_s.min;

    ctx.row()
        .label("path", cfg.path)
        .label("clients", cfg.clients)
        .stat("requests", static_cast<double>(last.requests))
        .stat("rows", static_cast<double>(last.rows))
        .timing("wall_s", wall_s)
        .timing("rows_per_sec",
                TimingAgg::single(last.completed_rows_per_sec()))
        .timing("p50_ms", TimingAgg::single(last.latency_quantile(0.5) * 1e3))
        .timing("p99_ms",
                TimingAgg::single(last.latency_quantile(0.99) * 1e3));
  }
  // The acceptance ratio: same clients, same requests, same queued path —
  // only the coalescing window differs, so the wall ratio IS the
  // throughput ratio bought by batching. Min walls, per the stability
  // note above.
  ctx.row()
      .label("path", "speedup: batched vs one call per request @16 clients")
      .label("clients", 16)
      .timing("speedup",
              TimingAgg::single(batched_min > 0 ? window1_min / batched_min
                                                : 0))
      .timing("speedup_vs_direct",
              TimingAgg::single(batched_min > 0 ? direct16_min / batched_min
                                                : 0));
  ctx.chart("rows_per_sec");
  ctx.note(
      "one call per request = the queued path with the batching window at "
      "1: every request pays its own dispatcher pop, compute-lock handoff, "
      "span and demux, but no fork/join, because a 2-row request is one "
      "scheduler chunk and runs on the dispatcher's thread; window=4096 "
      "coalesces whatever is queued into a single compute call, which "
      "forks once it spans more than one chunk. Both queued configs run "
      "the same pipelined closed loop (4 in flight per client), so the "
      "only difference is the server-side call granularity. Acceptance: "
      "speedup > 1 at 16 clients. direct = clients call assign_now "
      "synchronously, bypassing admission entirely; with no queue, future "
      "or fork/join it is the fastest path, and the reference for what the "
      "queue+future machinery itself costs.");
}

const Registration reg({
    "serve_closed",
    "Closed-loop serving: batched mega-batches vs one-request-per-call at "
    "16 clients",
    "ROADMAP serving front end (no paper exhibit); DESIGN.md §11",
    "Batched throughput above the one-compute-call-per-request baseline "
    "at 16 clients (same queued path, window=1 vs window=4096), by tens of "
    "percent: a 2-row request runs inline as one scheduler chunk, so "
    "batching amortizes only the per-call dispatch, not a fork/join; the "
    "direct synchronous path, with no admission hop and no fork/join, is "
    "faster than both.",
    430, run});

}  // namespace
