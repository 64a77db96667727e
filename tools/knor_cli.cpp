// knor command-line interface.
//
//   knor_cli generate --out data.kmat --dist natural --n 1000000 --d 16
//   knor_cli info data.kmat
//   knor_cli cluster --data data.kmat --mode im  --k 10 [--no-prune] ...
//   knor_cli cluster --data data.kmat --mode sem --k 10 --row-cache-mb 64
//   knor_cli cluster --data data.kmat --mode dist --k 10 --ranks 4
//
// Exercises the full public API; run `knor_cli help` for every flag.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "knor/knor.hpp"

namespace {

using namespace knor;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(knor_cli — NUMA-optimized k-means (HPDC'17 reproduction)

subcommands:
  generate --out FILE [--dist natural|uniform|univariate] [--n N] [--d D]
           [--components C] [--separation S] [--alpha A] [--locality L]
           [--seed S]
      Stream a synthetic dataset to a .kmat file (never materialized in
      memory).

  info FILE
      Print a .kmat file's header.

  cluster (--data FILE | --gen natural|uniform|univariate --n N --d D)
          --mode im|sem|dist --k K
          [--iters I] [--threads T] [--seed S] [--init forgy|random|
           kmeans++] [--no-prune] [--numa-oblivious] [--numa-nodes N]
          [--numa-bind on|off] [--sched numa|fifo|static] [--task-size N]
          [--simd auto|scalar|sse2|avx2|avx512] [--tolerance F]
          [--metrics FILE] [--trace FILE]
          im:   [--algo lloyd|gemm] [--gemm-tile auto|RxC]
      --threads T      worker threads (0 = one per hardware CPU)
      --init           centroid init (default forgy); sem accepts only
                       forgy
      --algo           im-mode engine: lloyd = NUMA-optimized pruned
                       Lloyd's (default), gemm = blocked-GEMM formulation
                       (fastest at large k; see DESIGN.md §12)
      --gemm-tile      cache tile of the GEMM engine as ROWSxCOLS, e.g.
                       64x256 (auto = L2-sized default; pure performance
                       knob — results are bitwise identical across tiles)
      --metrics FILE   write the run's metric registry as JSON (env
                       KNOR_METRICS; deterministic/timing split,
                       DESIGN.md §10)
      --trace FILE     write a Chrome trace-event JSON of the engine
                       phases (env KNOR_TRACE; open in chrome://tracing
                       or Perfetto)
      --numa-bind      pin workers to their NUMA node's CPUs (default on)
      --sched          scheduling policy: numa = per-node work-stealing
                       deques, fifo = one flat shared queue, static = no
                       stealing (default numa)
      --task-size N    rows per scheduler task (0 = adaptive, default)
      --simd ISA       distance-kernel instruction set (default auto =
                       best supported; unavailable choices clamp down;
                       KNOR_SIMD sets the default)
          sem:  [--page-kb K] [--page-cache-mb M] [--row-cache-mb M]
                [--no-row-cache] [--cache-interval I]
                [--checkpoint FILE] [--checkpoint-interval I] [--resume]
          dist: [--ranks R] [--threads-per-rank T] [--net-latency-us U]
                [--net-gbps G] [--fault-plan PLAN] [--ckpt FILE]
                [--ckpt-every I] [--max-retries N] [--resume]
      --fault-plan     deterministic failure script (DESIGN.md §13);
                       semicolon-separated events: crash@I:rN (node N
                       crashes after iteration I), leave@I:rN / join@I:rN
                       (graceful elasticity), slow:rN*M (straggler
                       multiplier), flaky@I*C (iteration I's collective
                       times out C times), seed=S. Any FT flag routes the
                       run through the fault-tolerant elastic driver.
      --ckpt FILE      leader-written distributed checkpoint (atomic
                       write-fsync-rename, FNV-1a checksummed); recovery
                       and --resume reload it
      --ckpt-every I   checkpoint every I iteration boundaries (default 1;
                       0 = only forced pre-reshard checkpoints)
      --max-retries N  transient-collective retry budget (default 4)
      --resume         continue from --ckpt if it exists
      Run k-means and print the result summary (and SEM I/O statistics).
)");
  std::exit(error != nullptr ? 2 : 0);
}

// Shared strict --flag parser (tools/cli_args.hpp): a malformed numeric
// value exits through usage() instead of atoi-style silently becoming 0.
using Args = tools::Args;

Args parse_args(int argc, char** argv, int first) {
  return Args(argc, argv, first,
              [](const std::string& msg) { usage(msg.c_str()); });
}

data::Distribution parse_dist(const std::string& name) {
  if (name == "natural") return data::Distribution::kNaturalClusters;
  if (name == "uniform") return data::Distribution::kUniformRandom;
  if (name == "univariate") return data::Distribution::kUnivariateRandom;
  usage(("unknown distribution " + name).c_str());
}

data::GeneratorSpec spec_from(const Args& args, const std::string& dist) {
  data::GeneratorSpec spec;
  spec.dist = parse_dist(dist);
  spec.n = static_cast<index_t>(args.num("n", 100000));
  spec.d = static_cast<index_t>(args.num("d", 16));
  spec.true_clusters = static_cast<int>(args.num("components", 16));
  spec.separation = args.real("separation", 8.0);
  spec.power_law_alpha = args.real("alpha", 1.5);
  spec.locality = args.real("locality", 0.0);
  spec.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  return spec;
}

int cmd_generate(const Args& args) {
  const std::string out = args.str("out");
  if (out.empty()) usage("generate requires --out");
  const data::GeneratorSpec spec = spec_from(args, args.str("dist", "natural"));
  std::printf("generating %s -> %s (%.1f MB)\n", spec.describe().c_str(),
              out.c_str(), spec.bytes() / 1e6);
  args.reject_unknown();  // every generate flag has been consulted
  data::write_generated(out, spec);
  std::printf("done\n");
  return 0;
}

int cmd_info(const std::string& path) {
  const data::MatrixHeader header = data::read_header(path);
  std::printf("%s: n=%llu d=%llu elem=%zuB total=%.1f MB\n", path.c_str(),
              static_cast<unsigned long long>(header.n),
              static_cast<unsigned long long>(header.d), header.elem_size,
              static_cast<double>(header.n) * header.d * header.elem_size /
                  1e6);
  return 0;
}

Options options_from(const Args& args) {
  // Shared engine flags (k/threads/seed/NUMA/sched/simd/init) parse in
  // tools/cli_args.hpp — one builder for knor_cli and knor_stream.
  Options opts = tools::engine_options_from(args);
  opts.max_iters = static_cast<int>(args.num_min("iters", 100, 0));
  opts.prune = !args.has("no-prune");
  opts.numa_aware = !args.has("numa-oblivious");
  opts.tolerance = args.real("tolerance", 0.0);
  return opts;
}

void print_result(const Result& res) {
  std::printf("%s\n", res.summary().c_str());
  std::printf("cluster sizes:");
  for (index_t size : res.cluster_sizes)
    std::printf(" %llu", static_cast<unsigned long long>(size));
  std::printf("\n");
}

int cmd_cluster(const Args& args) {
  const std::string mode = args.str("mode", "im");
  Options opts = options_from(args);
  // Resolve before the run: a --trace/KNOR_TRACE path enables the tracer
  // (spans that close while it is disabled are dropped).
  const obs::ExportConfig exports =
      obs::export_config(args.str("metrics"), args.str("trace"));
  const auto finish = [&](int rc) {
    obs::write_exports(exports);
    return rc;
  };

  // Acquire data: a .kmat file, or generated in memory.
  const std::string path = args.str("data");
  DenseMatrix matrix;
  if (mode != "sem") {
    if (!path.empty())
      matrix = data::read_matrix(path);
    else if (args.has("gen"))
      matrix = data::generate(spec_from(args, args.str("gen")));
    else
      usage("cluster requires --data FILE or --gen DIST");
  } else if (path.empty()) {
    usage("--mode sem requires --data FILE");
  }

  if (mode == "im") {
    const std::string algo = args.str("algo", "lloyd");
    try {
      opts.gemm_tile = parse_gemm_tile_or_throw(
          args.str("gemm-tile", "auto"), "--gemm-tile");
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    args.reject_unknown();  // every im-mode flag has been consulted
    if (algo == "gemm")
      print_result(gemm_kmeans(matrix.const_view(), opts));
    else if (algo == "lloyd")
      print_result(kmeans(matrix.const_view(), opts));
    else
      usage(("unknown --algo " + algo).c_str());
    return finish(0);
  }
  if (mode == "sem") {
    sem::SemOptions sopts;
    sopts.page_size = static_cast<std::size_t>(args.num("page-kb", 4)) << 10;
    sopts.page_cache_bytes =
        static_cast<std::size_t>(args.num("page-cache-mb", 4)) << 20;
    sopts.row_cache_bytes =
        static_cast<std::size_t>(args.num("row-cache-mb", 16)) << 20;
    sopts.row_cache_enabled = !args.has("no-row-cache");
    sopts.cache_update_interval =
        static_cast<int>(args.num("cache-interval", 5));
    sopts.checkpoint_path = args.str("checkpoint");
    sopts.checkpoint_interval =
        static_cast<int>(args.num("checkpoint-interval", 0));
    sopts.resume = args.has("resume");
    args.reject_unknown();  // every sem-mode flag has been consulted
    // knors draws forgy's k rows in one fetch; random partition and
    // k-means++ would need passes over the whole file that it lacks.
    if (opts.init != Init::kForgy)
      usage("--mode sem supports only --init forgy");
    sem::SemStats stats;
    print_result(sem::kmeans(path, opts, sopts, &stats));
    std::printf("io: requested %.1f MB, read %.1f MB over %zu iterations\n",
                stats.total_requested() / 1e6, stats.total_read() / 1e6,
                stats.per_iter.size());
    return finish(0);
  }
  if (mode == "dist") {
    dist::DistOptions dopts;
    dopts.ranks = static_cast<int>(args.num("ranks", 2));
    dopts.threads_per_rank =
        static_cast<int>(args.num("threads-per-rank", 1));
    dopts.net.latency_us = args.real("net-latency-us", 0);
    dopts.net.gigabytes_per_sec = args.real("net-gbps", 0);
    dist::FtOptions fopts;
    const std::string plan_spec = args.str("fault-plan");
    fopts.checkpoint_path = args.str("ckpt");
    fopts.checkpoint_every = static_cast<int>(args.num("ckpt-every", 1));
    fopts.max_retries = static_cast<int>(args.num("max-retries", 4));
    fopts.resume = args.has("resume");
    args.reject_unknown();  // every dist-mode flag has been consulted
    try {
      if (!plan_spec.empty()) fopts.plan = dist::FaultPlan::parse(plan_spec);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    // The fault-tolerant driver only when fault tolerance is asked for:
    // the plain path stays the zero-overhead single-epoch engine.
    const bool ft = !fopts.plan.empty() ||
                    !fopts.checkpoint_path.empty() || fopts.resume;
    if (!ft) {
      print_result(dist::kmeans(matrix.const_view(), opts, dopts));
      return finish(0);
    }
    const Result res = dist::ft_kmeans(matrix.const_view(), opts, dopts, fopts);
    print_result(res);
    std::printf(
        "ft: faults %lld retries %lld recoveries %lld checkpoints %lld "
        "member-events %lld\n",
        static_cast<long long>(res.metrics.value_or("dist.faults_injected", 0)),
        static_cast<long long>(res.metrics.value_or("dist.retries", 0)),
        static_cast<long long>(res.metrics.value_or("dist.recoveries", 0)),
        static_cast<long long>(res.metrics.value_or("dist.checkpoints", 0)),
        static_cast<long long>(
            res.metrics.value_or("dist.membership_events", 0)));
    return finish(0);
  }
  usage(("unknown mode " + mode).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  try {
    // Strict env validation up front: a typo'd KNOR_LOG/KNOR_LOG_FORMAT
    // exits nonzero here instead of terminating inside a lazy static init.
    knor::log_init_from_env();
    if (cmd == "help" || cmd == "--help" || cmd == "-h") usage();
    if (cmd == "generate") return cmd_generate(parse_args(argc, argv, 2));
    if (cmd == "info") {
      if (argc < 3) usage("info requires a file argument");
      return cmd_info(argv[2]);
    }
    if (cmd == "cluster") return cmd_cluster(parse_args(argc, argv, 2));
    usage(("unknown subcommand " + cmd).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
