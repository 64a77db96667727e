// knor end-to-end benchmark: one process runs one named workload from a
// seed, measures it for --seconds, checks every output, and prints one JSON
// result line (end-to-end metrics, or per-layer metrics with --trace 1).
// perfbench/README.md explains the workloads, the metrics and why the
// benchmark is shaped the way it is; perfbench/run.py builds and drives it.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_tracker.hpp"
#include "common/strict_parse.hpp"
#include "dist/comm.hpp"
#include "inputs.hpp"
#include "knor/knor.hpp"
#include "numa/topology.hpp"
#include "sched/scheduler.hpp"
#include "sem/page_file.hpp"
#include "serving.hpp"
#include "support.hpp"

namespace pb {
namespace {

using knor::DenseMatrix;
using knor::index_t;

enum class Engine { kKnori, kKnors, kKnord };

struct Workload {
  const char* name;
  const char* fit;   ///< fingerprint key: workloads sharing it must agree
  Engine engine;
  bool natural;      ///< Gaussian mixture (true) or uniform rows
  index_t n, d;
  int k;
  int max_iters;     ///< at tolerance 0; inputs are shaped so seeds reach it
  int threads;       ///< engine threads (knord: ranks x 1 thread)
  index_t bulk_rows;  ///< rows of the bulk assign_file query file
  /// Heavy open-loop rate (8-row requests/s): about half the closed-loop
  /// capacity measured for this workload's model (README.md, "Workloads").
  double heavy_rps;
};

// The three workloads. Each trains a model with one engine and then serves
// it, so every workload reports every end-to-end metric; README.md gives
// the reason each one exists. No workload keeps more than three threads
// busy (README.md, "Noise findings"): knors runs 2 workers + 1 I/O thread.
const Workload kWorkloads[] = {
    {"knori-natural", "natural", Engine::kKnori, true, 1 << 18, 16, 16, 24, 3,
     1 << 19, 150000},
    {"knors-natural", "natural", Engine::kKnors, true, 1 << 18, 16, 16, 24, 2,
     1 << 19, 150000},
    {"knord-uniform", "uniform", Engine::kKnord, false, 1 << 19, 32, 64, 8, 3,
     1 << 18, 70000},
};

constexpr double kWarmupS = 1.0;
/// Set-ups timed at the end of every round, so that setup_s samples the
/// whole run like the other metrics rather than the first second of it.
constexpr int kSetupsPerRound = 2;
constexpr std::size_t kMinRounds = 3;
/// Trace runs switch the engine tracer on (it has no off switch) half-way
/// through the rounds, and never before this many untraced rounds.
constexpr std::size_t kUntracedRounds = 2;
constexpr index_t kPoolRows = 1 << 14;
/// knord's interconnect: 50 µs hops at 1.25 GB/s, dist/netsim.hpp's
/// approximation of the paper's 10GbE interconnect.
const knor::dist::NetModel kNet{50.0, 1.25};

knor::Options engine_options(const Workload& w, const DenseMatrix& init) {
  knor::Options o;
  o.k = w.k;
  o.max_iters = w.max_iters;
  o.tolerance = 0.0;
  o.init = knor::Init::kProvided;
  o.initial_centroids = init;
  o.threads = w.threads;
  return o;
}

/// One clustering run; `sem_stats` receives knors's per-iteration I/O
/// accounting when non-null.
knor::Result solve(const Workload& w, const DenseMatrix& data,
                   const std::string& kmat, const DenseMatrix& init,
                   knor::sem::SemStats* sem_stats = nullptr) {
  const knor::Options o = engine_options(w, init);
  switch (w.engine) {
    case Engine::kKnori:
      return knor::kmeans(data.view(), o);
    case Engine::kKnors: {
      knor::sem::SemOptions s;
      s.page_cache_bytes = 8 << 20;
      s.row_cache_bytes = 16 << 20;
      s.io_threads = 1;
      return knor::sem::kmeans(kmat, o, s, sem_stats);
    }
    case Engine::kKnord: {
      knor::dist::DistOptions d;
      d.ranks = w.threads;
      d.threads_per_rank = 1;
      d.net = kNet;
      return knor::dist::kmeans(data.view(), o, d);
    }
  }
  throw std::logic_error("unknown engine");
}

/// Independent check of a clustering of the rows in `kmat`: every centroid
/// is the mean of its members and the energy is the sum of squared member
/// distances (within summation-order rounding). The rows are streamed from
/// the file, so knors's check holds no copy of them. Returns the number of
/// violated properties.
int solution_violations(const std::string& kmat, const knor::Result& r, int k) {
  knor::data::RowReader reader(kmat);
  const index_t n = reader.n(), d = reader.d();
  if (r.assignments.size() != n || r.centroids.rows() != static_cast<index_t>(k) ||
      r.centroids.cols() != d)
    return 1;
  std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(k), 0);
  double energy = 0;
  DenseMatrix chunk(std::min<index_t>(n, 1 << 14), d);
  for (index_t begin = 0; begin < n; begin += chunk.rows()) {
    const index_t end = std::min<index_t>(n, begin + chunk.rows());
    reader.read(begin, end, chunk.view().sub_rows(0, end - begin));
    for (index_t i = begin; i < end; ++i) {
      const knor::cluster_t a = r.assignments[i];
      if (a >= static_cast<knor::cluster_t>(k)) return 1;
      ++counts[a];
      const double* x = chunk.row(i - begin);
      const double* c = r.centroids.row(a);
      for (index_t j = 0; j < d; ++j) {
        sums[a * d + j] += x[j];
        energy += (x[j] - c[j]) * (x[j] - c[j]);
      }
    }
  }
  int bad = 0;
  for (int c = 0; c < k; ++c) {
    if (counts[static_cast<std::size_t>(c)] == 0) continue;
    for (index_t j = 0; j < d; ++j) {
      const double mean = sums[static_cast<std::size_t>(c) * d + j] /
                          static_cast<double>(counts[static_cast<std::size_t>(c)]);
      if (std::fabs(mean - r.centroids.at(static_cast<index_t>(c), j)) >
          1e-9 * (1.0 + std::fabs(mean))) {
        ++bad;
        break;
      }
    }
  }
  if (std::fabs(energy - r.energy) > 1e-9 * std::max(1.0, energy)) ++bad;
  return bad;
}

/// Order-sensitive 64-bit checksum of a matrix's bytes.
std::uint64_t checksum(const DenseMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, m.data() + i, sizeof v);
    h = (h ^ v) * 0x100000001b3ULL;
  }
  return h;
}

/// Parses Fingerprint::str() output ("iters,energy,hexhash"); iters 0 on
/// malformed input, which no real run matches.
Fingerprint parse_fingerprint(const std::string& s) {
  Fingerprint fp;
  const auto c1 = s.find(',');
  const auto c2 = s.find(',', c1 == std::string::npos ? c1 : c1 + 1);
  if (c2 == std::string::npos) return fp;
  const std::string_view v(s);
  const std::string_view hex = v.substr(c2 + 1);
  std::uint64_t iters = 0, hash = 0;
  double energy = 0;
  const auto [end, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), hash, 16);
  if (knor::parse_u64(v.substr(0, c1), &iters) &&
      knor::parse_double(v.substr(c1 + 1, c2 - c1 - 1), &energy) &&
      ec == std::errc() && end == hex.data() + hex.size())
    fp = {iters, energy, hash};
  return fp;
}

/// Same clustering: iterations and assignments exactly, energy to the
/// last-ulp differences engines with different reduction trees may show.
bool same_fingerprint(const Fingerprint& a, const Fingerprint& b) {
  return a.iters == b.iters && a.assign_hash == b.assign_hash &&
         std::fabs(a.energy - b.energy) <= 1e-9 * std::max(1.0, a.energy);
}

/// Deterministic counters of a run's registry slice as "name value" lines,
/// for comparing a traced run against the timed run of the same seed.
std::map<std::string, std::int64_t> det_values(const knor::obs::Snapshot& s) {
  std::map<std::string, std::int64_t> out;
  for (const auto& m : s.metrics)
    if (m.det == knor::obs::Det::kDeterministic &&
        m.kind != knor::obs::Kind::kHistogram)
      out[m.name] = m.value;
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool fingerprint_only = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/out";
  std::map<std::string, std::string> expect;  ///< isa -> fingerprint string
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "knor_perfbench: " << why
            << "\nusage: knor_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir D] [--out-dir D] [--expect ISA=FP]... "
               "| --fingerprint-only\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  if (!knor::parse_u64(s, &v)) usage("not a non-negative integer: '" + s + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fingerprint-only") {
      a.fingerprint_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v));
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--expect") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) usage("--expect takes ISA=FINGERPRINT");
      a.expect[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed ||
      (!a.fingerprint_only && !have_seconds))
    usage("--workload, --seed and --seconds are required");
  return a;
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wp = &w;
  if (!wp) usage("unknown workload '" + args.workload + "'");
  const Workload& w = *wp;
  const std::string isa =
      knor::kernels::to_string(knor::kernels::resolve(knor::kernels::Isa::kAuto));

  const std::string tag = std::string(w.name) + "-" + std::to_string(args.seed);
  const std::string kmat = args.work_dir + "/" + tag + ".kmat";
  const std::string bulk = args.work_dir + "/" + tag + ".bulk.kmat";

  if (args.fingerprint_only) {
    Inputs in = w.natural ? natural_inputs(args.seed, w.n, w.d, w.k)
                          : uniform_inputs(args.seed, w.n, w.d, w.k);
    knor::data::write_matrix(kmat, in.rows);
    const knor::Result r = solve(w, in.rows, kmat, in.init);
    std::remove(kmat.c_str());
    std::cout << w.fit << " " << args.seed << " " << isa << " "
              << fingerprint(r).str() << "\n";
    return 0;
  }

  Report rep;
  Spans spans;
  const DenseMatrix pool =
      query_rows(w.natural, args.seed, kPoolRows, w.d, w.k);
  {
    DenseMatrix bulk_rows(w.bulk_rows, w.d);
    for (index_t i = 0; i < w.bulk_rows; ++i)
      std::copy(pool.row(i % kPoolRows), pool.row(i % kPoolRows) + w.d,
                bulk_rows.row(i));
    knor::data::write_matrix(bulk, bulk_rows);
  }
  sync_file(bulk);
  Inputs in = w.natural ? natural_inputs(args.seed, w.n, w.d, w.k)
                        : uniform_inputs(args.seed, w.n, w.d, w.k);
  std::cout << "host " << host_fingerprint_json(in.rows.size() * sizeof(double))
            << "\n";

  DenseMatrix data = std::move(in.rows);
  const std::uint64_t sum = checksum(data);
  knor::data::write_matrix(kmat, data);
  // The input files go to disk now, so that their writeback does not run
  // under a timed section later.
  sync_file(kmat);
  // knors clusters from the .kmat: the rows in memory are only set-up's.
  if (w.engine == Engine::kKnors) data = DenseMatrix();

  // ---- set-up: load the data through matrix_io, bring up serving ----------
  // One copy of the rows at a time: the .kmat is read back, checked by
  // checksum and written again.
  std::uint64_t setups = 0, bad_loads = 0;
  auto set_up = [&] {
    spans.measure("setup", [&] {
      data = DenseMatrix();
      spans.measure("data.read", [&] { data = knor::data::read_matrix(kmat); });
      spans.measure("data.write", [&] { knor::data::write_matrix(kmat, data); });
      spans.measure("serve.construct", [&] {
        knor::serve::QueryFrontEnd fe(in.init, serve_options(kServeWorkers));
        knor::stream::AssignServer srv(in.init, serve_options(kBulkThreads));
      });
    });
    ++setups;
    bad_loads += data.rows() != w.n || data.cols() != w.d || checksum(data) != sum;
    if (w.engine == Engine::kKnors) data = DenseMatrix();
  };

  warm_up(kWarmupS);

  // ---- rounds: train the model, serve it, set up again ---------------------
  // Each round is one clustering run, one round of serving and
  // kSetupsPerRound set-ups, repeated for --seconds, so every metric samples
  // the whole run and a host stall moves one round, not one metric. The
  // first clustering run follows the warm-up directly. Trace runs enable
  // the engine tracer for the second half of the run.
  const auto expected = args.expect.find(isa);
  if (expected == args.expect.end())
    rep.note("no recorded fingerprint for " + std::string(w.fit) + " seed " +
             std::to_string(args.seed) + " on " + isa +
             "; checking structure and repeatability only");
  // Only the first run's Result is kept whole: later runs are compared with
  // it and dropped, so memory does not grow with the number of rounds.
  knor::Result first;
  std::vector<double> second_iters;  // iteration times of the second run
  knor::sem::SemStats sem_stats;     // of the first run
  // iter_s holds one mean iteration time per run: knors's per-iteration
  // times are bimodal (row-cache refresh iterations), and a median over
  // pooled iterations flips between the modes from seed to seed.
  std::vector<double> solve_s, traced_solve_s, iter_s, solve_cpu, solve_rss;
  std::size_t process_peak_rss = 0;
  bool traced = false;
  std::vector<std::string> det_diff;  // kDeterministic metrics that moved
  auto note_det_diff = [&](const std::string& m) {
    if (std::find(det_diff.begin(), det_diff.end(), m) == det_diff.end())
      det_diff.push_back(m);
  };
  std::size_t runs = 0;
  std::uint64_t bad_solves = 0;
  std::unique_ptr<ServeBench> serving;
  StealMeter steal;
  const Clock::time_point t_run = Clock::now();
  while (runs < kMinRounds || seconds_since(t_run) < args.seconds) {
    if (args.trace && !traced && runs >= kUntracedRounds &&
        seconds_since(t_run) >= args.seconds / 2) {
      traced = true;
      knor::obs::Tracer::global().enable();
    }
    knor::Result r;
    // peak_rss_mb is the peak RSS of the clustering call, so that neither
    // the benchmark's own buffers nor serving set it: freed heap goes back
    // to the kernel and VmHWM, a high-water mark that freeing does not
    // lower, restarts from the current RSS.
    process_peak_rss = std::max(process_peak_rss, knor::peak_rss_bytes());
    malloc_trim(0);
    const bool rss_reset = reset_peak_rss();
    const double cpu0 = process_cpu_s();
    const double t = spans.measure(traced ? "solve.traced" : "solve", [&] {
      r = solve(w, data, kmat, in.init, runs == 0 ? &sem_stats : nullptr);
    });
    (traced ? traced_solve_s : solve_s).push_back(t);
    solve_cpu.push_back(process_cpu_s() - cpu0);
    if (rss_reset)
      solve_rss.push_back(static_cast<double>(knor::peak_rss_bytes()) / (1 << 20));
    const auto& it = r.iter_times.samples();
    iter_s.push_back(r.iter_times.mean());
    const Fingerprint fp = fingerprint(r);
    bool ok = runs == 0 ? solution_violations(kmat, r, w.k) == 0
                        : same_fingerprint(fp, fingerprint(first));
    if (expected != args.expect.end() &&
        !same_fingerprint(fp, parse_fingerprint(expected->second))) {
      ok = false;
      rep.note("fingerprint " + fp.str() + " != recorded " + expected->second);
    }
    bad_solves += !ok;
    if (runs == 0) {
      first = std::move(r);
      serving = std::make_unique<ServeBench>(
          first.centroids, pool, bulk, w.heavy_rps, derive_seed(args.seed, 100));
    } else {
      for (const std::string& m : det_differences(first.metrics, r.metrics))
        note_det_diff(m);
      if (runs == 1) second_iters = it;
    }
    ++runs;
    serving->round(spans, rep);
    for (int i = 0; i < kSetupsPerRound; ++i) set_up();
  }
  steal.stop();
  rep.ops(setups, bad_loads, ".kmat round trips that changed the rows");
  process_peak_rss = std::max(process_peak_rss, knor::peak_rss_bytes());
  if (solve_rss.empty()) {
    rep.note("the kernel refused to reset VmHWM; peak_rss_mb is the whole "
             "process's peak");
    solve_rss.push_back(static_cast<double>(process_peak_rss) / (1 << 20));
  }
  rep.ops(runs, bad_solves, "clustering runs that were wrong");
  rep.note("fingerprint " + std::string(w.fit) + " " +
           std::to_string(args.seed) + " " + isa + " " +
           fingerprint(first).str());
  const ServeResult sv = serving->result();

  // Repeatability: kDeterministic counters must match across every run of
  // this process and (trace runs) the timed run of the same seed, when it
  // left a record.
  const std::string det_path = args.out_dir + "/" + tag + ".det";
  if (!args.trace) {
    std::ostringstream os;
    for (const auto& [name, v] : det_values(first.metrics))
      os << name << " " << v << "\n";
    write_file(det_path, os.str());
  } else if (std::ifstream f(det_path); f) {
    const auto now = det_values(first.metrics);
    std::string name;
    std::int64_t v = 0;
    while (f >> name >> v) {
      const auto found = now.find(name);
      if (found == now.end() || found->second != v) note_det_diff(name);
    }
  }
  for (const std::string& m : det_diff)
    rep.note("kDeterministic metric '" + m + "' differs between runs");

  if (!args.trace) {
    rep.set("solve_s", median(solve_s), "s");
    rep.set("iter_ms", median(iter_s) * 1e3, "ms");
    rep.set("solve_cpu_s", median(solve_cpu), "s");
    rep.set("setup_s", median(spans.durations("setup")), "s");
    rep.set("peak_rss_mb", median(solve_rss), "MB");
    rep.set("capacity_rows_per_cpu_s", sv.capacity_rows_per_cpu_s, "rows/cpu-s");
    rep.set("bulk_rows_per_cpu_s", sv.bulk_rows_per_cpu_s, "rows/cpu-s");
  } else {
    // Wall-clock serving numbers: user-visible, but on a shared host they
    // move with the neighbours (README.md, "Noise findings"), so they ride
    // the traced run without a regression bound.
    rep.set("p50_ms_light", sv.p50_light_ms, "ms");
    rep.set("p99_ms_light", sv.p99_light_ms, "ms");
    rep.set("p50_ms_heavy", sv.p50_heavy_ms, "ms");
    rep.set("p99_ms_heavy", sv.p99_heavy_ms, "ms");
    rep.set("capacity_rows_per_s", sv.capacity_rows_per_s, "rows/s");
    rep.set("bulk_rows_per_s", sv.bulk_rows_per_s, "rows/s");
    rep.set("host.steal_frac", steal.fraction(), "ratio");

    // ---- per-layer probes, each a span around one public call ----------
    const knor::obs::Snapshot& m = first.metrics;
    const double iters = static_cast<double>(first.iters);
    const int T = w.threads;

    std::vector<double> ns;
    {
      const knor::kernels::Ops& K =
          knor::kernels::ops_for(knor::kernels::Isa::kAuto);
      knor::kernels::CentroidPack pack;
      pack.pack(first.centroids);
      const index_t rows = std::min<index_t>(w.n, 1 << 16);
      DenseMatrix head(rows, w.d);
      knor::data::read_rows(kmat, 0, rows, head.view());
      std::vector<knor::cluster_t> out(rows);
      for (int r = 0; r < 5; ++r)
        ns.push_back(spans.measure("kernels.nearest_blocked", [&] {
          double sq = 0;
          for (index_t i = 0; i < rows; ++i)
            out[i] = K.nearest_blocked(head.row(i), pack, &sq);
        }) * 1e9 / static_cast<double>(rows));
    }
    const double ns_per_row = median(ns);
    const double assign_s = hist_sum_s(m, "phase.assign");
    const double dists = static_cast<double>(m.value_or("core.dist_computations", 0));
    rep.set("kernels.ns_per_row", ns_per_row, "ns");
    // phase.assign is one span per iteration per coordinating engine thread
    // (one per rank for knord), covering that thread's workers.
    const int span_threads = w.engine == Engine::kKnord ? 1 : w.threads;
    rep.set("kernels.bound_frac",
            assign_s > 0
                ? dists * ns_per_row / w.k * 1e-9 / (span_threads * assign_s)
                : 0,
            "ratio");

    rep.set("core.dist_computations", dists, "count");
    rep.set("core.iterations", iters, "count");
    rep.set("core.clause1_skip_frac",
            static_cast<double>(m.value_or("core.clause1_skips", 0)) /
                (static_cast<double>(w.n) * iters),
            "ratio");
    rep.set("phase.assign_s", assign_s, "s");
    rep.set("phase.update_s", hist_sum_s(m, "phase.update"), "s");
    rep.set("phase.energy_s", hist_sum_s(m, "phase.energy"), "s");
    // Share of each coordinating engine thread's time (one per rank for
    // knord) spent in the collective.
    const int coordinators = w.engine == Engine::kKnord ? w.threads : 1;
    rep.set("phase.allreduce_frac",
            hist_sum_s(m, "phase.allreduce") / (coordinators * solve_s.front()),
            "ratio");

    const knor::Counters& c = first.counters;
    const double tasks =
        static_cast<double>(c.tasks_own + c.tasks_same_node + c.tasks_remote_node);
    rep.set("sched.steal_frac",
            tasks > 0 ? static_cast<double>(c.tasks_same_node + c.tasks_remote_node) /
                            tasks
                      : 0,
            "ratio");
    const std::vector<double>& busy = first.thread_busy_s;
    double busy_sum = 0, busy_max = 0;
    for (double b : busy) {
      busy_sum += b;
      busy_max = std::max(busy_max, b);
    }
    if (busy.empty() || busy_sum <= 0) {
      rep.note("sched.busy_skew and sched.idle_frac absent: this engine "
               "records no per-thread busy time (reported as 0)");
      rep.set("sched.busy_skew", 0, "ratio");
      rep.set("sched.idle_frac", 0, "ratio");
    } else {
      rep.set("sched.busy_skew",
              busy_max / (busy_sum / static_cast<double>(busy.size())),
              "ratio");
      rep.set("sched.idle_frac", 1.0 - busy_sum / (T * solve_s.front()),
              "ratio");
    }
    {
      knor::sched::Scheduler sched(T, knor::numa::Topology::detect());
      const index_t ts = knor::sched::Scheduler::resolve_task_size(w.n, 0);
      std::vector<double> us;
      for (int r = 0; r < 200; ++r)
        us.push_back(spans.measure("sched.parallel_for_empty", [&] {
          sched.parallel_for(w.n, ts, nullptr,
                             [](int, const knor::sched::Task&) {});
        }) * 1e6);
      rep.set("sched.fork_join_us", median(us), "us");
    }

    const double req = static_cast<double>(m.value_or("sem.bytes_requested", 0));
    const double read = static_cast<double>(m.value_or("sem.bytes_read", 0));
    const double pc_hits = static_cast<double>(m.value_or("sem.page_cache_hits", 0));
    const double pc_miss = static_cast<double>(m.value_or("sem.page_cache_misses", 0));
    // Row-cache lookups are the rows that needed data, summed over
    // iterations from SemStats (the registry's sem.active_rows holds only
    // the last iteration's count).
    double rc_hits = 0, active = 0;
    for (const knor::sem::IterIo& io : sem_stats.per_iter) {
      rc_hits += static_cast<double>(io.row_cache_hits);
      active += static_cast<double>(io.active_rows);
    }
    rep.set("sem.bytes_requested", req, "bytes");
    rep.set("sem.bytes_read", read, "bytes");
    rep.set("sem.device_requests",
            static_cast<double>(m.value_or("sem.device_requests", 0)), "count");
    rep.set("sem.read_amp", req > 0 ? read / req : 0, "ratio");
    rep.set("sem.page_cache_hit_frac",
            pc_hits + pc_miss > 0 ? pc_hits / (pc_hits + pc_miss) : 0, "ratio");
    rep.set("sem.row_cache_hit_frac", active > 0 ? rc_hits / active : 0, "ratio");
    // Share of worker time blocked in fetch_rows (one sample per call).
    rep.set("sem.io_wait_frac",
            hist_sum_s(m, "sem.io_wait_us") / (T * solve_s.front()), "ratio");
    {
      knor::sem::PageFile pf(kmat);
      constexpr std::uint32_t kExtent = 256;
      std::vector<unsigned char> buf(kExtent * pf.page_size());
      std::vector<double> gbps;
      for (int r = 0; r < 3; ++r) {
        std::uint64_t bytes = 0;
        const double t = spans.measure("sem.read_pages", [&] {
          for (std::uint64_t p = 0; p < pf.num_pages(); p += kExtent)
            bytes += pf.read_pages(
                p, static_cast<std::uint32_t>(
                       std::min<std::uint64_t>(kExtent, pf.num_pages() - p)),
                buf.data());
        });
        gbps.push_back(static_cast<double>(bytes) / t * 1e-9);
      }
      rep.set("sem.pagefile_gbps", median(gbps), "GB/s");
    }

    rep.set("dist.collective_bytes",
            static_cast<double>(m.value_or("dist.collective_bytes", 0)) / iters,
            "bytes/iter");
    rep.set("dist.collective_messages",
            static_cast<double>(m.value_or("dist.collective_messages", 0)) / iters,
            "count/iter");
    {
      knor::dist::Cluster cluster(3);
      cluster.set_net(kNet);
      std::vector<double> us;
      spans.measure("dist.allreduce_sum", [&] {
        cluster.run([&](knor::dist::Communicator& comm) {
          std::vector<double> buf(static_cast<std::size_t>(w.k) * w.d + w.k + 1,
                                  1.0);
          for (int r = 0; r < 200; ++r) {
            const Clock::time_point t0 = Clock::now();
            comm.allreduce_sum(buf.data(), buf.size());
            if (comm.rank() == 0) us.push_back(seconds_since(t0) * 1e6);
          }
        });
      });
      rep.set("dist.allreduce_us", median(us), "us");
    }

    rep.set("serve.queue_wait_p99_ms", sv.queue_wait_p99_ms, "ms");
    rep.set("serve.compute_p99_ms", sv.compute_p99_ms, "ms");
    rep.set("serve.batch_rows_mean", sv.batch_rows_mean, "rows");
    rep.set("serve.shed", sv.shed, "count");
    rep.set("loadgen.late_p50_ms", sv.late_p50_ms, "ms");
    rep.set("loadgen.late_p99_ms", sv.late_p99_ms, "ms");
    rep.set("serve.heavy_load_frac", sv.heavy_load_frac, "ratio");
    rep.set("stream.assign.io_stall_s", sv.io_stall_s, "s");
    rep.set("stream.assign.compute_wait_s", sv.compute_wait_s, "s");
    rep.set("stream.assign.batch_mean_ms", sv.batch_mean_ms, "ms");

    rep.set("data.write_s", median(spans.durations("data.write")), "s");
    rep.set("data.read_s", median(spans.durations("data.read")), "s");

    // Traced rounds against the untraced ones after the first (cold) one.
    rep.set("obs.trace_overhead",
            median(traced_solve_s) /
                median(std::vector<double>(solve_s.begin() + 1, solve_s.end())),
            "ratio");
    rep.set("mem.process_peak_rss_mb",
            static_cast<double>(process_peak_rss) / (1 << 20), "MB");
    rep.set("mem.peak_bytes",
            static_cast<double>(knor::MemoryTracker::instance().peak_bytes()),
            "bytes");

    // Cold-ramp guard: the first solve after warm-up against the second,
    // which does identical work, over the whole run and its first 3
    // iterations.
    const auto& it0 = first.iter_times.samples();
    const auto& it1 = second_iters;
    double head0 = 0, head1 = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, it0.size()); ++i) {
      head0 += it0[i];
      head1 += it1[i];
    }
    rep.set("warmup.first_solve_ratio", solve_s[0] / solve_s[1], "ratio");
    rep.set("warmup.first_iters_ratio", head1 > 0 ? head0 / head1 : 0, "ratio");
    rep.set("repeat.det_mismatches", static_cast<double>(det_diff.size()),
            "count");

    write_file(args.out_dir + "/" + tag + ".engine-trace.json",
               knor::obs::Tracer::global().to_chrome_json());
  }
  write_file(args.out_dir + "/" + tag + (args.trace ? ".traced" : "") +
                 ".spans.json",
             spans.to_chrome_json());
  std::remove(kmat.c_str());
  std::remove(bulk.c_str());

  char frac[64];
  std::snprintf(frac, sizeof frac, "%.6g",
                static_cast<double>(rep.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)));
  rep.note(std::string("failed_frac ") + frac);
  for (const std::string& n : rep.notes) std::cout << "note: " << n << "\n";
  std::cout << rep.result_json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "knor_perfbench: " << e.what() << "\n";
    return 1;
  }
}
