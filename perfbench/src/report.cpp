#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The two metric sets of BENCHMARK.json, in its order.  selftest.py checks
// that a run prints exactly the names listed there.
constexpr MetricSpec kEndToEnd[] = {
    {"solve_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"req_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"kernels.ax_s", "s"},
    {"kernels.ax_gflops", "GFLOP/s"},
    {"kernels.ax_1t_s", "s"},
    {"kernels.ax_bytes", "B"},
    {"solver.apply_s", "s"},
    {"solver.apply_calls", "count"},
    {"solver.reduce_s", "s"},
    {"solver.reduce_calls", "count"},
    {"solver.vector_pass_s", "s"},
    {"solver.vector_pass_calls", "count"},
    {"solver.unattributed_s", "s"},
    {"solver.qqt_s", "s"},
    {"solver.iterations", "count"},
    {"sem.box_mesh_s", "s"},
    {"solver.setup_build_s", "s"},
    {"backend.make_s", "s"},
    {"model.apply_s", "s"},
    {"model.apply_ratio", "ratio"},
    {"runtime.send_max_s", "s"},
    {"runtime.send_min_s", "s"},
    {"runtime.recv_wait_max_s", "s"},
    {"runtime.recv_wait_min_s", "s"},
    {"runtime.allreduce_max_s", "s"},
    {"runtime.allreduce_min_s", "s"},
    {"runtime.barrier_max_s", "s"},
    {"runtime.barrier_min_s", "s"},
    {"runtime.messages", "count"},
    {"runtime.halo_bytes", "B"},
    {"runtime.rank_apply_max_s", "s"},
    {"runtime.rank_apply_min_s", "s"},
    {"service.queue_p50_s", "s"},
    {"service.queue_p99_s", "s"},
    {"service.solve_p50_s", "s"},
    {"service.unattributed_p99_s", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_lookups", "count"},
    {"service.batch_mean", "count"},
    {"service.rejected", "count"},
    {"service.expired", "count"},
    {"service.failed", "count"},
    {"service.req_p50_s", "s"},
    {"service.req_p99_s", "s"},
    {"service.gen_late_p99_s", "s"},
    {"trace.solve_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

template <std::size_t N>
const MetricSpec* find(const MetricSpec (&table)[N], const std::string& name) {
  for (const MetricSpec& spec : table) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

/// JSON string body with the characters JSON requires escaped.
std::string escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double sliced_rate(const std::vector<double>& done_at, double start, double end) {
  const double width = (end - start) / static_cast<double>(kRateSlices);
  std::vector<double> counts(kRateSlices, 0.0);
  for (const double t : done_at) {
    const auto slice = static_cast<std::size_t>(std::max(0.0, (t - start) / width));
    counts[std::min(slice, kRateSlices - 1)] += 1.0;
  }
  for (double& c : counts) {
    c /= width;
  }
  return median(counts);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::function<double(double, double, double)> seeded_forcing(std::uint64_t seed) {
  // Uniform [-1, 1) from a hash of `key` and the coordinate bits.
  auto white = [](std::uint64_t key, double x, double y, double z) {
    semfpga::SplitMix64 mix(key ^ std::bit_cast<std::uint64_t>(x));
    mix = semfpga::SplitMix64(mix.next_u64() ^ std::bit_cast<std::uint64_t>(y));
    mix = semfpga::SplitMix64(mix.next_u64() ^ std::bit_cast<std::uint64_t>(z));
    return mix.uniform(-1.0, 1.0);
  };
  constexpr std::uint64_t kBaseKey = 0x5eed0f5e4f96a000ULL;
  return [seed, white](double x, double y, double z) {
    return white(kBaseKey, x, y, z) + 1e-3 * white(seed, x, y, z);
  };
}

void Report::set(const std::string& name, double value, std::size_t samples) {
  const bool known = trace_ ? find(kPerLayer, name) != nullptr : find(kEndToEnd, name) != nullptr;
  if (!known) {
    throw std::logic_error("metric not in this run's table: " + name);
  }
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.samples = samples;
      return;
    }
  }
  entries_.push_back(Entry{name, value, samples});
}

void Report::note(const std::string& name, double value, const char* unit,
                  std::size_t samples) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %-16.6g %-8s n=%zu (reported, not gated)", name.c_str(),
                value, unit, samples);
  notes_.emplace_back(buf);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 8) {
      failures_.push_back(what);
    }
  }
}

void Report::print() const {
  auto emit = [&](const auto& table, bool require_all) {
    std::string json;
    for (const MetricSpec& spec : table) {
      const Entry* entry = nullptr;
      for (const Entry& e : entries_) {
        if (e.name == spec.name) {
          entry = &e;
        }
      }
      if (entry == nullptr && require_all) {
        throw std::logic_error(std::string("end-to-end metric not measured: ") + spec.name);
      }
      const double value = entry != nullptr ? entry->value : 0.0;
      const std::size_t samples = entry != nullptr ? entry->samples : 0;
      if (entry != nullptr) {
        std::printf("  %-28s %-16.6g %-8s n=%zu\n", spec.name, value, spec.unit, samples);
      } else {
        std::printf("  %-28s %-16s %-8s (not applicable to this workload)\n", spec.name, "0",
                    spec.unit);
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", spec.name, value, spec.unit);
      json += buf;
    }
    return json;
  };
  const double fail_ratio =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
  std::printf("  %-28s %-16.6g %-8s n=%lld (failed %lld of %lld attempted)\n", "fail_ratio",
              fail_ratio, "ratio", static_cast<long long>(attempted_),
              static_cast<long long>(failed_), static_cast<long long>(attempted_));
  for (const std::string& failure : failures_) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  const std::string metrics = trace_ ? emit(kPerLayer, false) : emit(kEndToEnd, true);
  for (const std::string& line : notes_) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<long long>(attempted_), static_cast<long long>(failed_),
              metrics.c_str());
  std::fflush(stdout);
}

void print_environment(const Options& options) {
  std::string omp;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("OMP_", 0) == 0) {
      const std::size_t eq = entry.find('=');
      omp += (omp.empty() ? "" : ", ") + std::string("\"") + escape(entry.substr(0, eq)) +
             "\": \"" + escape(eq == std::string::npos ? "" : entry.substr(eq + 1)) + "\"";
    }
  }
  std::string shapes;
  for (const WorkloadShape& shape : {solve_n7_large_shape(options.tiny), ranks_n3_3d_shape(options.tiny),
                                     service_mix_shape(options.tiny)}) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"threads\": %d, \"ranks\": %d, \"working_set_bytes\": %.0f}",
                  shapes.empty() ? "" : ", ", shape.name, shape.threads, shape.ranks,
                  shape.working_set_bytes);
    shapes += buf;
  }
  std::printf(
      "environment {\"nproc\": %u, \"compiler\": \"%s\", \"flags\": \"%s\", \"git_sha\": "
      "\"%s\", \"omp\": {%s}, \"l2_bytes_per_core\": %ld, \"l3_bytes\": %ld, \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"workloads\": "
      "{%s}}\n",
      std::thread::hardware_concurrency(), escape(__VERSION__).c_str(),
      escape(PERFBENCH_CXX_FLAGS).c_str(), escape(options.git_sha).c_str(), omp.c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      escape(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.tiny ? 1 : 0, shapes.c_str());
}

}  // namespace perfbench
