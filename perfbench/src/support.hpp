// Shared plumbing of the end-to-end benchmark: the workload PRNG, order
// statistics, the benchmark's own span recorder, result accounting and the
// host fingerprint. Nothing here reaches into knor internals; the spans
// wrap calls into knor's public API from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "knor/knor.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by every thread of this process so far. Unlike wall
/// time it excludes time the hypervisor gave to other guests.
double process_cpu_s();

/// Resets the process's peak RSS (VmHWM) to its current RSS; false when the
/// kernel refuses. Linux only: writes "5" to /proc/self/clear_refs.
bool reset_peak_rss();

/// Writes the file's dirty pages to the device and waits (fsync); throws
/// when that fails.
void sync_file(const std::string& path);

/// Share of all CPUs' time the hypervisor gave to other guests between
/// construction and stop() (the "steal" column of /proc/stat).
class StealMeter {
 public:
  StealMeter() { read(&steal0_, &total0_); }
  void stop() { read(&steal1_, &total1_); }
  double fraction() const {
    return total1_ > total0_ ? static_cast<double>(steal1_ - steal0_) /
                                   static_cast<double>(total1_ - total0_)
                             : 0.0;
  }

 private:
  static void read(std::uint64_t* steal, std::uint64_t* total);
  std::uint64_t steal0_ = 0, total0_ = 0, steal1_ = 0, total1_ = 0;
};

/// splitmix64: the benchmark's own generator, so a change to
/// knor's common/prng.hpp can never change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Standard normal (Box-Muller; the second variate is discarded so the
  /// stream position stays a pure function of the call count).
  double normal();

 private:
  std::uint64_t s_;
};

/// Stream seed for one (workload seed, purpose) pair.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty vector.
double quantile(std::vector<double> v, double q);

/// The benchmark's own spans: name, start, end and the enclosing span,
/// kept in memory and written out as Chrome trace JSON when the run ends.
class Spans {
 public:
  /// Run fn inside a span; returns the span's duration in seconds.
  template <typename Fn>
  double measure(const std::string& name, Fn&& fn) {
    const int id = open(name);
    fn();
    return close(id);
  }
  /// Durations (s) of every closed span called `name`, in order.
  std::vector<double> durations(const std::string& name) const;
  std::string to_chrome_json() const;

 private:
  struct Event {
    std::string name;
    int parent;
    double t0, t1;
  };
  int open(const std::string& name);
  double close(int id);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> events_;
  std::vector<int> stack_;
};

/// Everything one run reports: metrics by name with units, operation
/// accounting and human-readable notes (printed before the result line).
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& msg) { notes.push_back(msg); }
  /// Count `attempted` operations of which `bad` failed; `what` names them.
  void ops(std::uint64_t attempted_ops, std::uint64_t bad,
           const std::string& what);
  /// Compact JSON line with the exactly-four-keys result shape.
  std::string result_json() const;
};

/// Run fingerprint: what two runs must agree on to be the same clustering.
struct Fingerprint {
  std::uint64_t iters = 0;
  double energy = 0;
  std::uint64_t assign_hash = 0;
  std::string str() const;
};
/// Iterations, energy and an FNV-1a 64 hash of the assignments'
/// little-endian bytes.
Fingerprint fingerprint(const knor::Result& res);

/// kDeterministic metrics whose values differ between two snapshots.
std::vector<std::string> det_differences(const knor::obs::Snapshot& a,
                                         const knor::obs::Snapshot& b);

/// Histogram sum in seconds (samples recorded in µs); 0 when absent.
double hist_sum_s(const knor::obs::Snapshot& s, const std::string& name);

/// CPU model, nproc, resolved ISA, L2/L3 and the input's size relative to
/// L3, as one JSON object.
std::string host_fingerprint_json(std::uint64_t input_bytes);

/// Threads the benchmark keeps busy at once: one fewer than the hardware
/// threads. On the 4-vCPU reference host a fourth spinning thread loses
/// ~20% of its time to 16-24 ms preemption gaps, three lose almost none
/// (README.md, "Noise findings").
unsigned busy_threads();

/// Keep busy_threads() threads spinning for `seconds` so the first timed
/// section does not run on a cold (idle-clocked, descheduled) host.
void warm_up(double seconds);

}  // namespace pb
