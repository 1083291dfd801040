/// perfbench: the repository benchmark.
///
/// Usage: perfbench --workload solve_n7_large|ranks_n3_3d|service_mix
///                  --seed N --seconds S --trace 0|1
///                  [--tiny] [--perturb] [--git-sha SHA]
///
/// Prints the environment block, a metric table (name, value, unit, sample
/// count) and, as the last line, the result JSON.  Exits 0 only when every
/// output matched its oracle; 1 on any mismatch or failure; 2 on bad usage.
/// --tiny shrinks every workload for the self-test; --perturb flips one
/// bit of one result before its oracle check, which must count as a
/// failure.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload solve_n7_large|ranks_n3_3d|"
               "service_mix --seed N --seconds S --trace 0|1 [--tiny] [--perturb] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--perturb") {
      options.perturb = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--git-sha") {
      options.git_sha = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return usage("--seconds must lie in (0, 120]");
  }
  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (options.workload == "solve_n7_large") {
    run = perfbench::run_solve_n7_large;
  } else if (options.workload == "ranks_n3_3d") {
    run = perfbench::run_ranks_n3_3d;
  } else if (options.workload == "service_mix") {
    run = perfbench::run_service_mix;
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  perfbench::print_environment(options);
  perfbench::Report report(options.trace);
  try {
    run(options, report);
  } catch (const std::exception& e) {
    // An exception is a failed operation: report it, print no result.
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  report.print();
  return report.failed() == 0 ? 0 : 1;
}
