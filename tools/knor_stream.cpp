// knor_stream — streaming clustering + assignment serving (DESIGN.md §9).
//
//   knor_stream ingest  --data stream.kmat --k 64 --decay 0.9
//                       --batch-rows 4096 --snapshot model.ckpt
//   knor_stream assign  --snapshot model.ckpt --queries q.kmat --out a.bin
//   knor_stream snapshot model.ckpt
//
// `ingest` streams a .kmat through a stream::StreamEngine in --batch-rows
// chunks (bounded memory) and snapshots the model; `assign` serves a query
// file against frozen centroids at full blocked-kernel throughput;
// `snapshot` prints a snapshot's header. All numeric flags are strictly
// parsed: garbage exits nonzero instead of silently becoming 0.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "knor/knor.hpp"

namespace {

using namespace knor;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(knor_stream — streaming clustering + assignment serving

subcommands:
  ingest --data FILE --k K [--decay F] [--batch-rows N]
         [--snapshot FILE] [--snapshot-every N] [--resume]
         [--seed S] [--init forgy|random|kmeans++]
         [--threads T] [--numa-bind on|off] [--sched numa|fifo|static]
         [--task-size N] [--numa-nodes N] [--simd ISA]
         [--metrics FILE] [--trace FILE]
      Stream FILE through a StreamEngine in --batch-rows chunks.
      --decay F          per-batch weight decay in (0,1]; 1 = running mean
                         over the whole stream (default 1)
      --batch-rows N     rows per ingested batch (default 4096)
      --snapshot FILE    write the final model snapshot here (and resume
                         from it with --resume)
      --snapshot-every N auto-snapshot every N batches (0 = off)
      For a fixed batch replay the model is bitwise identical at any
      thread count / scheduling policy (DESIGN.md §9).

  assign (--snapshot CKPT | --centroids FILE.kmat) --queries FILE
         [--out FILE] [--batch-rows N] [--source io|page] [--page-kb K]
         [--io-buffers N] [--threads T] [--simd ISA]
         [--metrics FILE] [--trace FILE]
      Stream-assign every query row against the frozen centroids.
      --out FILE        raw little-endian u32 assignment per row, row order
      --source io|page  read whole rows (matrix_io) or page extents
                        through the SEM PageFile (default io)
      --io-buffers N    in-flight batches, N >= 1: 1 reads and assigns
                        in turn, 2 or more overlap I/O with compute; the
                        bound is the ingestion backpressure (default 2)

  snapshot FILE
      Print a snapshot's shape (k, d, batches, rows per cluster).

Both ingest and assign accept --metrics FILE (env KNOR_METRICS) for the
run's metric-registry JSON — including the stream.assign.batch_us p50/p99
latency histogram — and --trace FILE (env KNOR_TRACE) for a Chrome
trace-event JSON of the engine phases (DESIGN.md §10).
)");
  std::exit(error != nullptr ? 2 : 0);
}

using Args = tools::Args;

Args parse_args(int argc, char** argv, int first) {
  return Args(argc, argv, first,
              [](const std::string& msg) { usage(msg.c_str()); });
}

// Shared engine flags (k/threads/seed/NUMA/sched/simd/init) parse in
// tools/cli_args.hpp — one builder for knor_cli and knor_stream.

int cmd_ingest(const Args& args) {
  const std::string data = args.str("data");
  if (data.empty()) usage("ingest requires --data FILE");
  const obs::ExportConfig exports =
      obs::export_config(args.str("metrics"), args.str("trace"));
  const Options opts = tools::engine_options_from(args);
  stream::StreamOptions sopts;
  sopts.decay = args.real("decay", 1.0);
  sopts.batch_rows = static_cast<index_t>(args.num_min("batch-rows", 4096, 1));
  sopts.snapshot_path = args.str("snapshot");
  sopts.snapshot_every =
      static_cast<int>(args.num_min("snapshot-every", 0, 0));
  if (sopts.snapshot_every > 0 && sopts.snapshot_path.empty())
    usage("--snapshot-every requires --snapshot FILE");

  stream::StreamEngine engine(opts, sopts);
  if (args.has("resume")) {
    if (sopts.snapshot_path.empty()) usage("--resume requires --snapshot FILE");
    engine.restore(sem::load_checkpoint(sopts.snapshot_path));
    std::printf("resumed from %s at batch %" PRIu64 "\n",
                sopts.snapshot_path.c_str(), engine.stats().batches);
  }
  args.reject_unknown();  // every ingest flag has been consulted

  const index_t rows = engine.ingest_file(data);
  const stream::StreamStats& st = engine.stats();
  std::printf(
      "ingested %" PRIu64 " rows in %" PRIu64 " batches "
      "(%.2f ms/batch mean), last batch SSE %.6g\n",
      static_cast<std::uint64_t>(rows), st.batches,
      st.batch_times.mean() * 1e3, st.last_batch_sse);
  std::printf("cluster weights:");
  for (const value_t w : engine.weights()) std::printf(" %.4g", w);
  std::printf("\n");
  if (!sopts.snapshot_path.empty()) {
    engine.save_snapshot(sopts.snapshot_path);
    std::printf("snapshot -> %s (%" PRIu64 " auto-snapshots during run)\n",
                sopts.snapshot_path.c_str(), st.snapshots);
  }
  obs::write_exports(exports);
  return 0;
}

int cmd_assign(const Args& args) {
  const std::string queries = args.str("queries");
  if (queries.empty()) usage("assign requires --queries FILE");
  const std::string ckpt_path = args.str("snapshot");
  const std::string cent_path = args.str("centroids");
  if (ckpt_path.empty() == cent_path.empty())
    usage("assign requires exactly one of --snapshot CKPT / --centroids "
          "FILE.kmat");

  const obs::ExportConfig exports =
      obs::export_config(args.str("metrics"), args.str("trace"));
  Options opts = tools::engine_options_from(args);
  DenseMatrix centroids = ckpt_path.empty()
                              ? data::read_matrix(cent_path)
                              : sem::load_checkpoint(ckpt_path).centroids;
  opts.k = static_cast<int>(centroids.rows());

  stream::AssignOptions aopts;
  aopts.batch_rows =
      static_cast<index_t>(args.num_min("batch-rows", 1 << 14, 1));
  aopts.io_buffers = static_cast<int>(args.num_min("io-buffers", 2, 1));
  aopts.page_size =
      static_cast<std::size_t>(args.num_min("page-kb", 4, 1)) << 10;
  const std::string source = args.str("source", "io");
  if (source == "io")
    aopts.source = stream::AssignOptions::Source::kMatrixIo;
  else if (source == "page")
    aopts.source = stream::AssignOptions::Source::kPageFile;
  else
    usage(("--source must be io or page, got " + source).c_str());

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> out;
  const std::string out_path = args.str("out");
  if (!out_path.empty()) {
    out.reset(std::fopen(out_path.c_str(), "wb"));
    if (out == nullptr) usage(("cannot write " + out_path).c_str());
  }
  args.reject_unknown();  // every assign flag has been consulted

  stream::AssignServer server(centroids, opts);
  const stream::AssignStats st = server.assign_file(
      queries, aopts,
      [&](index_t, const cluster_t* assign, index_t count) {
        if (out != nullptr &&
            std::fwrite(assign, sizeof(cluster_t),
                        static_cast<std::size_t>(count),
                        out.get()) != static_cast<std::size_t>(count))
          throw std::runtime_error("assign: write failed: " + out_path);
      });
  // A buffered tail that fails to flush must fail the command, never
  // print success over a truncated file.
  if (out != nullptr && std::fclose(out.release()) != 0)
    throw std::runtime_error("assign: close failed: " + out_path);

  std::printf(
      "assigned %" PRIu64 " rows in %" PRIu64 " batches: "
      "%.3g rows/s (%.1f MB read, compute %.1f ms, waited %.1f ms, "
      "drained %.1f ms, reader backpressured %.1f ms)\n",
      st.rows, st.batches, st.rows_per_sec(), st.bytes_read / 1e6,
      st.compute_s * 1e3, st.compute_wait_s * 1e3, st.drain_s * 1e3,
      st.io_stall_s * 1e3);
  std::printf("histogram:");
  for (const std::int64_t c : server.served_histogram())
    std::printf(" %lld", static_cast<long long>(c));
  std::printf("\n");
  if (!out_path.empty())
    std::printf("assignments -> %s\n", out_path.c_str());
  obs::write_exports(exports);
  return 0;
}

int cmd_snapshot(const std::string& path) {
  const sem::Checkpoint ckpt = sem::load_checkpoint(path);
  std::printf("%s: k=%d d=%llu batches=%" PRIu64 " %s\n", path.c_str(),
              ckpt.k(),
              static_cast<unsigned long long>(ckpt.centroids.cols()),
              ckpt.iteration,
              ckpt.weights.empty() ? "(SEM checkpoint)" : "(stream snapshot)");
  if (!ckpt.weights.empty()) {
    std::printf("rows per cluster:");
    for (const std::int64_t c : ckpt.counts)
      std::printf(" %lld", static_cast<long long>(c));
    std::printf("\n");
  }
  return 0;
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
    if (cmd == "ingest") return cmd_ingest(parse_args(argc, argv, 2));
    if (cmd == "assign") return cmd_assign(parse_args(argc, argv, 2));
    if (cmd == "snapshot") {
      if (argc < 3) usage("snapshot requires a file argument");
      return cmd_snapshot(argv[2]);
    }
    usage(("unknown subcommand " + cmd).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
