// Shared plumbing for the bfbench workloads: arguments, timing, order
// statistics, the result record every workload fills, and the span helper
// used in traced runs.
//
// Operations are timed in CPU time and summarised by their best repetition.
// On a shared virtual machine a thread loses wall time to steal (2-24% of
// CPU per run on the README's reference host), and memory-heavy code runs
// at a speed that changes every few seconds: in one process, the same B_10
// saturation point took a median 36 ms of CPU over one second and 61 ms
// over another, with no steal at all.  CPU time leaves the steal out, and
// the least time of an operation repeated through a run leaves out the
// short slow phases.  Drift over minutes remains (README, "How operations
// are timed").
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/bits.hpp"

namespace pb {

using bfly::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory for journals, sockets, traces
  std::string bflyd_path;  ///< the daemon binary (bflyd_mix and the serve layer)
};

/// Worker threads for every engine and dispatcher: nproc - 1, at least 1, so
/// one core stays free for the load generator and the host.
std::size_t worker_threads();

/// Median and linear-interpolated quantile (q in [0, 1]) of a sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// `times[k]` holds every timing of operation k, one per round.  The least
/// time of each operation, and their geometric mean: every operation counts
/// the same however long it takes, so a change to any of them moves it.
std::vector<double> best_times(const std::vector<std::vector<double>>& times);
double geo_mean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `errors` holds every failed output check;
/// a run with any error is not correct.
struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Records `err` unless it is empty (the check functions return "" on pass).
  void check(const std::string& err) {
    if (!err.empty()) errors.push_back(err);
  }
  bool correct() const { return errors.empty(); }
  const Metric* find(const std::string& name) const;
};

/// Repeats whole rounds of a workload until `seconds` are spent: the next
/// round starts only if the median round so far still fits, and at least
/// `min_rounds` always run.
class RoundClock {
 public:
  RoundClock(double seconds, int min_rounds) : seconds_(seconds), min_rounds_(min_rounds) {}
  bool another() const;
  void round_done(double round_seconds) { rounds_.push_back(round_seconds); }

 private:
  double seconds_;
  int min_rounds_;
  Clock::time_point t0_ = Clock::now();
  std::vector<double> rounds_;
};

/// Wall time of `fn()` in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// CPU seconds this process has used, every thread; steal time excluded.
double cpu_seconds();

/// CPU time of `fn()` in seconds.
template <typename Fn>
double cpu_timed(Fn&& fn) {
  const double t0 = cpu_seconds();
  fn();
  return cpu_seconds() - t0;
}

}  // namespace pb

// A span named after the library call it wraps; records only while an
// obs::Registry is installed (traced runs), otherwise one atomic load.
#define PB_SPAN(name) const ::bfly::obs::SpanScope BFLY_OBS_CONCAT(pb_span_, __LINE__)(name)
