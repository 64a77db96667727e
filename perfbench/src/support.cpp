#include "support.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace pb {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!ok) throw std::runtime_error("cannot sync " + path);
}

void StealMeter::read(std::uint64_t* steal, std::uint64_t* total) {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal
  *steal = *total = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) return;
    *total += v;
    if (i == 7) *steal = v;
  }
}

double Rng::normal() {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed * 0x100000001b3ULL ^ (stream + 0x7f4a7c159e3779b9ULL));
  return r.next();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

int Spans::open(const std::string& name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  events_.push_back({name, parent, seconds_since(epoch_), -1.0});
  stack_.push_back(static_cast<int>(events_.size()) - 1);
  return stack_.back();
}

double Spans::close(int id) {
  Event& e = events_[static_cast<std::size_t>(id)];
  e.t1 = seconds_since(epoch_);
  stack_.pop_back();
  return e.t1 - e.t0;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Event& e : events_)
    if (e.name == name && e.t1 >= 0) out.push_back(e.t1 - e.t0);
  return out;
}

std::string Spans::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 0, \"ts\": %.1f, \"dur\": %.1f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                  e.name.c_str(), e.t0 * 1e6, (e.t1 - e.t0) * 1e6, i, e.parent,
                  i + 1 < events_.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  return os.str();
}

void Report::ops(std::uint64_t attempted_ops, std::uint64_t bad,
                 const std::string& what) {
  attempted += attempted_ops;
  failed += bad;
  if (bad > 0)
    note("FAILED " + std::to_string(bad) + " of " +
         std::to_string(attempted_ops) + " " + what);
}

std::string Report::result_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string Fingerprint::str() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%llu,%.17g,%016llx",
                static_cast<unsigned long long>(iters), energy,
                static_cast<unsigned long long>(assign_hash));
  return buf;
}

Fingerprint fingerprint(const knor::Result& res) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (knor::cluster_t c : res.assignments)
    for (int b = 0; b < 4; ++b) {
      h ^= (c >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  return {res.iters, res.energy, h};
}

std::vector<std::string> det_differences(const knor::obs::Snapshot& a,
                                         const knor::obs::Snapshot& b) {
  using knor::obs::Det;
  using knor::obs::Kind;
  std::vector<std::string> out;
  auto differs = [](const knor::obs::Metric* x, const knor::obs::Metric* y) {
    if (!x || !y) return true;
    if (x->kind == Kind::kHistogram)
      return x->hist.count != y->hist.count || x->hist.sum != y->hist.sum;
    return x->value != y->value;
  };
  for (const auto& m : a.metrics)
    if (m.det == Det::kDeterministic && differs(&m, b.find(m.name)))
      out.push_back(m.name);
  for (const auto& m : b.metrics)
    if (m.det == Det::kDeterministic && !a.find(m.name))
      out.push_back(m.name);
  return out;
}

double hist_sum_s(const knor::obs::Snapshot& s, const std::string& name) {
  const knor::obs::Metric* m = s.find(name);
  return m && m->kind == knor::obs::Kind::kHistogram
             ? static_cast<double>(m->hist.sum) * 1e-6
             : 0.0;
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

/// Cache size in bytes of the given level from sysfs (0 when unknown).
std::uint64_t cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string lvl = read_first_line(dir + "level");
    if (lvl.empty()) break;
    if (lvl != std::to_string(level) ||
        read_first_line(dir + "type") == "Instruction")
      continue;
    const std::string size = read_first_line(dir + "size");  // e.g. "8192K"
    std::uint64_t v = 0;
    std::size_t i = 0;
    for (; i < size.size() && size[i] >= '0' && size[i] <= '9'; ++i)
      v = v * 10 + static_cast<std::uint64_t>(size[i] - '0');
    if (i < size.size() && size[i] == 'K') v <<= 10;
    if (i < size.size() && size[i] == 'M') v <<= 20;
    return v;
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      std::string m = colon == std::string::npos ? line : line.substr(colon + 1);
      m.erase(0, m.find_first_not_of(' '));
      for (char& c : m)
        if (c == '"' || c == '\\') c = ' ';
      return m;
    }
  return "unknown";
}

}  // namespace

std::string host_fingerprint_json(std::uint64_t input_bytes) {
  const std::uint64_t l2 = cache_bytes(2);
  const std::uint64_t l3 = cache_bytes(3);
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"cpu\": \"%s\", \"nproc\": %u, \"isa\": \"%s\", \"l2_bytes\": %llu, "
      "\"l3_bytes\": %llu, \"input_bytes\": %llu, \"input_over_l3\": %.3f}",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      knor::kernels::to_string(knor::kernels::resolve(knor::kernels::Isa::kAuto)),
      static_cast<unsigned long long>(l2), static_cast<unsigned long long>(l3),
      static_cast<unsigned long long>(input_bytes),
      l3 > 0 ? static_cast<double>(input_bytes) / static_cast<double>(l3) : 0.0);
  return buf;
}

unsigned busy_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

void warm_up(double seconds) {
  const unsigned n = busy_threads();
  std::atomic<double> sink{0};
  std::vector<std::thread> pool;
  const Clock::time_point t0 = Clock::now();
  for (unsigned t = 0; t < n; ++t)
    pool.emplace_back([&, t] {
      double acc = 1.0 + t;
      while (seconds_since(t0) < seconds)
        for (int i = 0; i < 4096; ++i) acc = acc * 1.0000001 + 1e-9;
      sink.store(acc, std::memory_order_relaxed);
    });
  for (auto& th : pool) th.join();
}

}  // namespace pb
