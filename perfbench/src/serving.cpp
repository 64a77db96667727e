#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <string>

namespace pb {

using knor::cluster_t;
using knor::ConstMatrixView;
using knor::DenseMatrix;
using knor::index_t;
using knor::value_t;
using knor::serve::Response;
using knor::serve::TopEntry;

namespace {

/// A shed request "misses every latency limit": it enters the percentiles
/// as this latency (and the run fails, since shed requests count as failed).
constexpr double kShedLatencyMs = 1e9;
constexpr index_t kRowsPerRequest = 8;
constexpr int kTopmEvery = 4;  ///< every 4th request is a top-m query
constexpr int kTopM = 4;
constexpr double kLightRps = 5000;  ///< light open-loop rate; heavy is per workload
/// A window whose generator submitted half its requests more than this late
/// fell behind its schedule, so its latencies do not describe the rate: the
/// window counts as a failed operation. The median, not the p99, because a
/// host preemption of 16-24 ms (README.md, "Noise findings") makes a few
/// percent of a window late without the generator being too slow.
constexpr double kBehindMs = 1.0;
/// Seconds of each serving phase per round.
constexpr double kLightS = 0.3, kHeavyS = 0.3, kCapacityS = 0.2;
constexpr std::size_t kPipeline = 64;  ///< closed-loop requests in flight
constexpr index_t kBulkBatchRows = 1 << 14;

/// Serial answers for every pool row, computed with the same ISA's
/// nearest_blocked / dist_sq the front end uses. Requests are windows of
/// consecutive pool rows, so checking a response is a lookup.
class Oracle {
 public:
  Oracle(const DenseMatrix& pool, const DenseMatrix& centroids, int m)
      : m_(m),
        nearest_(pool.rows()),
        sq_(pool.rows()),
        top_(pool.rows() * static_cast<std::size_t>(m)) {
    const knor::kernels::Ops& K =
        knor::kernels::ops_for(knor::kernels::Isa::kAuto);
    knor::kernels::CentroidPack pack;
    pack.pack(centroids);
    const int k = static_cast<int>(centroids.rows());
    std::vector<TopEntry> all(static_cast<std::size_t>(k));
    for (index_t i = 0; i < pool.rows(); ++i) {
      nearest_[i] = K.nearest_blocked(pool.row(i), pack, &sq_[i]);
      for (int c = 0; c < k; ++c)
        all[static_cast<std::size_t>(c)] = {
            static_cast<cluster_t>(c),
            K.dist_sq(pool.row(i), pack.row(c), centroids.cols())};
      std::sort(all.begin(), all.end(), [](const TopEntry& a, const TopEntry& b) {
        return a.dist_sq < b.dist_sq ||
               (a.dist_sq == b.dist_sq && a.cluster < b.cluster);
      });
      std::copy(all.begin(), all.begin() + m,
                top_.begin() + static_cast<std::ptrdiff_t>(i * m));
    }
  }

  cluster_t nearest(index_t row) const { return nearest_[row]; }

  /// True when `r` (for pool rows [first, first + r.assign.size())) is
  /// bitwise what serial evaluation gives.
  bool matches(index_t first, const Response& r) const {
    for (std::size_t j = 0; j < r.assign.size(); ++j) {
      const index_t row = first + j;
      if (r.assign[j] != nearest_[row] || r.dist_sq[j] != sq_[row])
        return false;
      for (int t = 0; t < r.m; ++t) {
        const TopEntry& got = r.topm[j * static_cast<std::size_t>(r.m) +
                                     static_cast<std::size_t>(t)];
        const TopEntry& want = top_[row * static_cast<std::size_t>(m_) +
                                    static_cast<std::size_t>(t)];
        if (got.cluster != want.cluster || got.dist_sq != want.dist_sq)
          return false;
      }
    }
    return true;
  }

 private:
  int m_;
  std::vector<cluster_t> nearest_;
  std::vector<value_t> sq_;
  std::vector<TopEntry> top_;
};

struct Request {
  index_t first = 0;  ///< first pool row
  int m = 0;          ///< 0 = assignment, >0 = top-m
};

Request draw_request(Rng& r, std::uint64_t i, const DenseMatrix& pool) {
  Request q;
  q.first = r.below(pool.rows() - kRowsPerRequest + 1);
  q.m = i % kTopmEvery == kTopmEvery - 1 ? kTopM : 0;
  return q;
}

std::future<Response> submit(knor::serve::QueryFrontEnd& fe,
                             const DenseMatrix& pool, const Request& q) {
  const ConstMatrixView rows = pool.view().sub_rows(q.first, kRowsPerRequest);
  return q.m > 0 ? fe.submit_topm(rows, q.m) : fe.submit_assign(rows);
}

struct OpenLoopOut {
  std::vector<double> lat_ms;   ///< per request, from its scheduled arrival
  std::vector<double> late_ms;  ///< how late the generator submitted it
  /// Per computed request, from the front end's own Response timings
  /// (exact, unlike the registry's log-bucketed histograms).
  std::vector<double> queue_ms, compute_ms;
};

/// Single-threaded open-loop Poisson generator: arrivals are planned in
/// virtual time before the window starts and submitted when due whatever
/// the backlog; latency is timed from the scheduled arrival (lateness of
/// the submission + the front end's admission-to-demux time).
OpenLoopOut open_loop(knor::serve::QueryFrontEnd& fe, const Oracle& oracle,
                      const DenseMatrix& pool, double rate, double seconds,
                      std::uint64_t seed,
                      Report& rep, const std::string& what) {
  Rng r(seed);
  std::vector<std::pair<double, Request>> plan;
  for (double t = 0;;) {
    t += -std::log(1.0 - r.uniform()) / rate;
    if (t >= seconds) break;
    plan.push_back({t, draw_request(r, plan.size(), pool)});
  }

  struct InFlight {
    std::future<Response> fut;
    std::size_t idx;
    double late_s;
  };
  std::deque<InFlight> inflight;
  OpenLoopOut out;
  out.lat_ms.reserve(plan.size());
  out.late_ms.reserve(plan.size());
  std::uint64_t bad = 0;
  auto settle_front = [&] {
    InFlight& f = inflight.front();
    const Response resp = f.fut.get();
    if (resp.shed) {
      ++bad;
      out.lat_ms.push_back(kShedLatencyMs);
    } else {
      if (!oracle.matches(plan[f.idx].second.first, resp)) ++bad;
      out.lat_ms.push_back((f.late_s + resp.total_s) * 1e3);
      out.queue_ms.push_back(resp.queue_wait_s * 1e3);
      out.compute_ms.push_back(resp.compute_s * 1e3);
    }
    inflight.pop_front();
  };

  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(plan[i].first));
    // Spin until due (a sleeping generator would add its own wake-up
    // latency to every request), settling one finished response per turn.
    while (Clock::now() < due)
      if (!inflight.empty() &&
          inflight.front().fut.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready)
        settle_front();
    const double late =
        std::chrono::duration<double>(Clock::now() - due).count();
    out.late_ms.push_back(late * 1e3);
    inflight.push_back({submit(fe, pool, plan[i].second), i, late});
  }
  while (!inflight.empty()) settle_front();
  rep.ops(plan.size(), bad, what + " requests wrong or shed");
  rep.ops(1, quantile(out.late_ms, 0.5) > kBehindMs,
          what + " windows whose generator fell behind its schedule");
  return out;
}

struct ClosedLoopOut {
  std::uint64_t rows = 0;  ///< rows of correct responses
  double wall_s = 0;
};

/// One client with kPipeline requests in flight for `seconds`.
ClosedLoopOut closed_loop(knor::serve::QueryFrontEnd& fe, const Oracle& oracle,
                          const DenseMatrix& pool, double seconds,
                          std::uint64_t seed, Report& rep) {
  Rng r(seed);
  std::deque<std::pair<std::future<Response>, Request>> inflight;
  std::uint64_t issued = 0, bad = 0, rows = 0;
  auto settle_front = [&] {
    const Response resp = inflight.front().first.get();
    if (resp.shed || !oracle.matches(inflight.front().second.first, resp))
      ++bad;
    else
      rows += resp.assign.size();
    inflight.pop_front();
  };
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    while (inflight.size() < kPipeline) {
      const Request q = draw_request(r, issued++, pool);
      inflight.push_back({submit(fe, pool, q), q});
    }
    settle_front();
  }
  while (!inflight.empty()) settle_front();
  rep.ops(issued, bad, "closed-loop requests wrong or shed");
  return {rows, seconds_since(t0)};
}

/// Mean of a registry histogram (its sum is exact; only its quantiles are
/// bucketed); 0 when absent or empty.
double hist_mean(const knor::obs::Snapshot& s, const std::string& name) {
  const knor::obs::Metric* m = s.find(name);
  return m && m->hist.count ? static_cast<double>(m->hist.sum) /
                                  static_cast<double>(m->hist.count)
                            : 0.0;
}

knor::serve::FrontEndOptions front_end_options() {
  knor::serve::FrontEndOptions f;
  // Deep enough that a host stall of tens of ms at the heavy rate queues
  // instead of shedding; a shed request still fails the run.
  f.queue_depth = 1 << 16;
  f.shed_policy = knor::serve::ShedPolicy::kShed;
  return f;
}

}  // namespace

knor::Options serve_options(int threads) {
  knor::Options o;
  o.threads = threads;
  return o;
}

struct ServeBench::State {
  State(const DenseMatrix& c, const DenseMatrix& p, std::string path,
        double heavy, std::uint64_t sd)
      : seed(sd),
        heavy_rps(heavy),
        pool(p),
        bulk_path(std::move(path)),
        oracle(p, c, kTopM),
        before(knor::obs::Registry::global().snapshot()),
        fe(c, serve_options(kServeWorkers), front_end_options()),
        server(c, serve_options(kBulkThreads)),
        bulk_rows(knor::data::read_header(bulk_path).n),
        got(bulk_rows) {}

  const std::uint64_t seed;
  const double heavy_rps;
  const DenseMatrix& pool;
  const std::string bulk_path;
  const Oracle oracle;
  const knor::obs::Snapshot before;
  knor::serve::QueryFrontEnd fe;
  knor::stream::AssignServer server;
  const index_t bulk_rows;
  std::vector<cluster_t> got;

  // One entry per round; nothing grows with the request count, so peak RSS
  // does not depend on how many rounds fit in the run.
  int rounds = 0;
  std::vector<double> light_p50, light_p99, heavy_p50, heavy_p99;
  std::vector<double> late_p50, late_p99;
  std::vector<double> queue_p99, compute_p99;
  std::vector<double> capacity, capacity_cpu, bulk, bulk_cpu;
  std::vector<double> io_stall, compute_wait;
};

ServeBench::ServeBench(const DenseMatrix& centroids, const DenseMatrix& pool,
                       std::string bulk_path, double heavy_rps,
                       std::uint64_t seed)
    : s_(std::make_unique<State>(centroids, pool, std::move(bulk_path),
                                 heavy_rps, seed)) {}

ServeBench::~ServeBench() = default;

void ServeBench::round(Spans& spans, Report& rep) {
  State& s = *s_;
  const std::uint64_t base = 16 * static_cast<std::uint64_t>(s.rounds++);
  auto window = [&](const char* span, double rate, double seconds,
                    std::uint64_t stream, std::vector<double>& p50s,
                    std::vector<double>& p99s) {
    OpenLoopOut o;
    spans.measure(span, [&] {
      o = open_loop(s.fe, s.oracle, s.pool, rate, seconds,
                    derive_seed(s.seed, base + stream), rep, span);
    });
    p50s.push_back(quantile(o.lat_ms, 0.50));
    p99s.push_back(quantile(o.lat_ms, 0.99));
    s.late_p50.push_back(quantile(o.late_ms, 0.50));
    s.late_p99.push_back(quantile(o.late_ms, 0.99));
    s.queue_p99.push_back(quantile(o.queue_ms, 0.99));
    s.compute_p99.push_back(quantile(o.compute_ms, 0.99));
  };
  window("serve.open_loop_light", kLightRps, kLightS, 1,
         s.light_p50, s.light_p99);
  window("serve.open_loop_heavy", s.heavy_rps, kHeavyS, 2,
         s.heavy_p50, s.heavy_p99);
  double cpu0 = process_cpu_s();
  ClosedLoopOut c;
  spans.measure("serve.closed_loop", [&] {
    c = closed_loop(s.fe, s.oracle, s.pool, kCapacityS,
                    derive_seed(s.seed, base + 3), rep);
  });
  s.capacity.push_back(static_cast<double>(c.rows) / c.wall_s);
  s.capacity_cpu.push_back(static_cast<double>(c.rows) /
                           (process_cpu_s() - cpu0));

  std::fill(s.got.begin(), s.got.end(), knor::kInvalidCluster);
  knor::stream::AssignOptions aopts;
  aopts.batch_rows = kBulkBatchRows;
  knor::stream::AssignStats st;
  cpu0 = process_cpu_s();
  spans.measure("stream.assign_file", [&] {
    st = s.server.assign_file(
        s.bulk_path, aopts,
        [&](index_t first, const cluster_t* a, index_t count) {
          std::copy(a, a + count,
                    s.got.begin() + static_cast<std::ptrdiff_t>(first));
        });
  });
  bool wrong = st.rows != s.bulk_rows;
  for (index_t i = 0; i < s.bulk_rows && !wrong; ++i)
    wrong = s.got[i] != s.oracle.nearest(i % s.pool.rows());
  rep.ops(1, wrong, "bulk assign_file passes with wrong rows");
  s.bulk.push_back(st.rows_per_sec());
  s.bulk_cpu.push_back(static_cast<double>(st.rows) / (process_cpu_s() - cpu0));
  s.io_stall.push_back(st.io_stall_s);
  s.compute_wait.push_back(st.compute_wait_s);
}

ServeResult ServeBench::result() const {
  const State& s = *s_;
  ServeResult out;
  // Each round's window gives its own quantiles; the median over rounds
  // keeps a host stall that hits one window from moving the reported value.
  out.p50_light_ms = median(s.light_p50);
  out.p99_light_ms = median(s.light_p99);
  out.p50_heavy_ms = median(s.heavy_p50);
  out.p99_heavy_ms = median(s.heavy_p99);
  // The generator's worst windows (one whose median is over kBehindMs has
  // already failed the run).
  out.late_p50_ms = *std::max_element(s.late_p50.begin(), s.late_p50.end());
  out.late_p99_ms = *std::max_element(s.late_p99.begin(), s.late_p99.end());
  out.capacity_rows_per_s = median(s.capacity);
  out.heavy_load_frac = s.heavy_rps * kRowsPerRequest / out.capacity_rows_per_s;
  out.bulk_rows_per_s = median(s.bulk);
  out.capacity_rows_per_cpu_s = median(s.capacity_cpu);
  out.bulk_rows_per_cpu_s = median(s.bulk_cpu);
  out.io_stall_s = median(s.io_stall);
  out.compute_wait_s = median(s.compute_wait);

  const knor::obs::Snapshot d =
      knor::obs::diff(s.before, knor::obs::Registry::global().snapshot());
  out.queue_wait_p99_ms = median(s.queue_p99);
  out.compute_p99_ms = median(s.compute_p99);
  out.batch_rows_mean = hist_mean(d, "serve.batch_rows");
  out.shed = static_cast<double>(d.value_or("serve.shed", 0));
  out.batch_mean_ms = hist_mean(d, "stream.assign.batch_us") * 1e-3;
  return out;
}

}  // namespace pb
