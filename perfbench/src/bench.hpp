#pragma once
/// \file bench.hpp
/// Shared pieces of the repository benchmark: run options, the metric
/// report, sample statistics, the seeded forcing and the workload entry
/// points.
///
/// One run executes one named workload.  With tracing off it reports the
/// end-to-end metrics; with tracing on it reports the per-layer metrics
/// measured through the benchmark's own decorators (decorators.hpp).  Every
/// output is checked against the repository's bitwise oracles and every
/// check counts as one attempted operation.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< length of the measured phase
  bool trace = false;         ///< per-layer run instead of end-to-end
  bool tiny = false;          ///< self-test sizes
  bool perturb = false;       ///< flip one bit of one result before its check
  std::string git_sha = "unknown";
};

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-up is timed in two batches, one before and one after the measured
/// window, so its median spans the run.  A batch repeats the build until at
/// least 5 builds and 1.5 s have run (at most 100 builds; 1 in the
/// self-test).
inline bool more_setup_reps(const Options& options, std::size_t done, double elapsed_s) {
  if (options.tiny) {
    return done < 1;
  }
  return done < 5 || (elapsed_s < 1.5 && done < 100);
}

/// Linear-interpolation quantile (q in [0, 1]) of raw samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

/// Slices a throughput window is cut into (see sliced_rate).
constexpr std::size_t kRateSlices = 8;
/// Completions per second over [start, end), robust to a transient stall
/// of the host: the window is cut into kRateSlices equal slices and the
/// median of the per-slice completion rates is returned.
double sliced_rate(const std::vector<double>& done_at, double start, double end);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Forcing: a fixed rough field (white noise in [-1, 1) hashed from the
/// node's coordinate bits) plus 1e-3 times a seeded one.  The fixed field
/// sets the CG iteration count, so every seed poses a problem of the same
/// cost; the seeded part makes each seed's inputs and solution distinct.
/// A pure function of position, so a rank's sample of its block equals the
/// single-rank sample restricted to it.
std::function<double(double, double, double)> seeded_forcing(std::uint64_t seed);

/// Metric values and failure accounting of one run.  Names and units come
/// from the fixed tables in report.cpp, which mirror BENCHMARK.json.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Records metric `name` (must be in the table of this run's mode).
  void set(const std::string& name, double value, std::size_t samples);
  /// Prints a measured value in the table only, not in the result line.
  void note(const std::string& name, double value, const char* unit, std::size_t samples);
  /// Counts one attempted operation; `ok == false` counts it failed.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool trace() const noexcept { return trace_; }
  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }

  /// Prints the metric table and, as the last line, the result JSON.
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::size_t samples = 0;
  };
  bool trace_;
  std::vector<Entry> entries_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few messages
  std::vector<std::string> notes_;     ///< table-only lines
};

/// Static shape of a workload, for the environment block.
struct WorkloadShape {
  const char* name;
  int threads;
  int ranks;
  double working_set_bytes;  ///< computed, see README
};
[[nodiscard]] WorkloadShape solve_n7_large_shape(bool tiny);
[[nodiscard]] WorkloadShape ranks_n3_3d_shape(bool tiny);
[[nodiscard]] WorkloadShape service_mix_shape(bool tiny);

/// Prints the one-line environment block (machine, build, workloads).
void print_environment(const Options& options);

void run_solve_n7_large(const Options& options, Report& report);
void run_ranks_n3_3d(const Options& options, Report& report);
void run_service_mix(const Options& options, Report& report);

}  // namespace perfbench
