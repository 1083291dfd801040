/// The two solve workloads.
///
/// solve_n7_large: single-rank Poisson N=7 on a 12^3 box (884,736 local
/// DOFs, ~42 MB of geometric factors, beyond the L2 caches), Jacobi CG to
/// 1e-6 on half the hardware threads through solver::solve_cg(Backend&).  The
/// kernels and solver layers do almost all the work; no runtime or service
/// code runs.
///
/// ranks_n3_3d: Poisson N=3 on a 16^3 box, 4 ranks x 1 thread, 3D block
/// partition with halo/compute overlap, cpu rank backend, CG to 1e-6.  Low
/// order makes halo exchange, qqt and allreduce a large share of each
/// iteration, so the runtime layer does most of its work here.  No network
/// decorator: LatencyFabric sleeps in real time.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "backend/fpga_sim_backend.hpp"
#include "bench.hpp"
#include "decorators.hpp"
#include "kernels/ax.hpp"
#include "kernels/ax_dispatch.hpp"
#include "runtime/fabric.hpp"
#include "runtime/partition.hpp"
#include "runtime/rank_system.hpp"
#include "runtime/spmd.hpp"
#include "sem/mesh.hpp"
#include "solver/cg.hpp"
#include "solver/poisson_system.hpp"
#include "solver/system_setup.hpp"

namespace perfbench {
namespace {

using namespace semfpga;

constexpr double kTolerance = 1e-6;
constexpr int kMaxIterations = 2000;
/// Solves every measured phase runs at least, so the bitwise repeat check
/// (and the self-test's perturbed second solve) always has a partner.
constexpr int kMinSolves = 3;

struct SolveSpec {
  const char* name;
  int degree;
  int nel;  ///< elements per direction
  int ranks;
  int threads;  ///< total
};

int nproc() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

/// Half the hardware threads: on a shared 4-vCPU VM a 4-thread solve waits
/// on whichever thread the host preempts, and its run-to-run spread (0.2 to
/// 0.46 of the median over 10 seeds) swamps any bound; at 2 threads it was
/// about 0.1.
int solve_threads() { return std::max(1, nproc() / 2); }

SolveSpec n7_spec(bool tiny) {
  return tiny ? SolveSpec{"solve_n7_large", 3, 3, 1, solve_threads()}
              : SolveSpec{"solve_n7_large", 7, 12, 1, solve_threads()};
}

SolveSpec ranks_spec(bool tiny) {
  return tiny ? SolveSpec{"ranks_n3_3d", 2, 4, 4, 4} : SolveSpec{"ranks_n3_3d", 3, 16, 4, 4};
}

sem::BoxMeshSpec box_of(const SolveSpec& s) {
  sem::BoxMeshSpec spec;
  spec.degree = s.degree;
  spec.nelx = spec.nely = spec.nelz = s.nel;
  return spec;
}

std::size_t elements_of(const SolveSpec& s) {
  return static_cast<std::size_t>(s.nel) * static_cast<std::size_t>(s.nel) *
         static_cast<std::size_t>(s.nel);
}

/// 15 doubles per element-local DOF: 6 geometric factors, 3 weights
/// (mask, Jacobi diagonal, 1/multiplicity) and 6 CG vectors (x, b, r, z,
/// p, w).
double working_set_bytes(const SolveSpec& s) {
  const double n1d = s.degree + 1;
  return static_cast<double>(elements_of(s)) * n1d * n1d * n1d * 15.0 * 8.0;
}

solver::CgOptions cg_options() {
  solver::CgOptions options;
  options.max_iterations = kMaxIterations;
  options.tolerance = kTolerance;
  options.use_jacobi = true;
  return options;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Flips the lowest mantissa bit of v: the smallest possible wrong answer.
void perturb(double& v) { v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ 1u); }

/// The first solve of a run, which every later solve must reproduce bitwise.
struct Reference {
  int iterations = 0;
  double final_residual = 0.0;
  std::vector<double> x;
};

bool matches(const Reference& ref, const solver::CgResult& cg) {
  return cg.converged && cg.iterations == ref.iterations &&
         std::bit_cast<std::uint64_t>(cg.final_residual) ==
             std::bit_cast<std::uint64_t>(ref.final_residual);
}

/// Median over repeated calls of `fn`: at least `min_reps` and at least
/// `min_seconds`, at most 200 calls, after one untimed warm-up.
template <class Fn>
double time_median(Fn&& fn, int min_reps, double min_seconds) {
  fn();
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 200 &&
         (static_cast<int>(samples.size()) < min_reps || now_s() - start < min_seconds)) {
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

/// Kernel and gather-scatter layers timed on the workload's own operands,
/// plus the modeled FPGA apply (the paper's fig. 3 reference column).
/// Returns model.apply_s.
double report_kernel_layers(const solver::PoissonSystem& system, int threads,
                            std::span<const double> u_in, Report& report) {
  const std::size_t n = system.n_local();
  aligned_vector<double> u(u_in.begin(), u_in.end());
  aligned_vector<double> w(n, 0.0);
  const sem::DerivMatrix& d = system.ref().deriv();
  kernels::AxArgs args;
  args.u = std::span<const double>(u.data(), n);
  args.w = std::span<double>(w.data(), n);
  args.g = std::span<const double>(system.geom().g.data(), system.geom().g.size());
  args.dx = std::span<const double>(d.d.data(), d.d.size());
  args.dxt = std::span<const double>(d.dt.data(), d.dt.size());
  args.n1d = system.ref().n1d();
  args.n_elements = system.geom().n_elements;
  auto ax_at = [&](int t) {
    return time_median([&] { kernels::ax_run(kernels::AxVariant::kFixed, args, {t}); }, 10, 0.3);
  };
  const double ax_s = ax_at(threads);
  const double ax_1t_s = ax_at(1);
  const auto flops = static_cast<double>(kernels::ax_flops(args.n1d, args.n_elements));
  report.set("kernels.ax_s", ax_s, 1);
  report.set("kernels.ax_gflops", flops / ax_s / 1e9, 1);
  report.set("kernels.ax_1t_s", ax_1t_s, 1);
  // Computed: u read + w written + 6 geometric factors read, per DOF.
  report.set("kernels.ax_bytes", static_cast<double>(n) * 8.0 * 8.0, 1);

  aligned_vector<double> local(n);
  std::vector<double> qqt_samples;
  for (int rep = 0; rep < 11; ++rep) {
    std::copy(u.begin(), u.end(), local.begin());
    const double t0 = now_s();
    system.gs().qqt(std::span<double>(local.data(), n), threads);
    qqt_samples.push_back(now_s() - t0);
  }
  report.set("solver.qqt_s", median(qqt_samples), qqt_samples.size());

  const double model_s = backend::modeled_apply(backend::fpga_sim_options(backend::MakeOptions{}),
                                                system.ref().n1d() - 1, args.n_elements)
                             .seconds;
  report.set("model.apply_s", model_s, 1);
  return model_s;
}

/// Per-solve layer times of the traced solves (one entry per solve).
struct LayerSamples {
  std::vector<double> solve_s, apply_s, reduce_s, vector_pass_s, unattributed_s;
  std::vector<double> apply_calls, reduce_calls, vector_pass_calls;

  void add(double solve, const BackendTotals& t) {
    solve_s.push_back(solve);
    apply_s.push_back(t.apply_s);
    reduce_s.push_back(t.reduce_s);
    vector_pass_s.push_back(t.vector_pass_s);
    unattributed_s.push_back(solve - t.apply_s - t.reduce_s - t.vector_pass_s);
    apply_calls.push_back(static_cast<double>(t.apply_calls));
    reduce_calls.push_back(static_cast<double>(t.reduce_calls));
    vector_pass_calls.push_back(static_cast<double>(t.vector_pass_calls));
  }

  void report_to(Report& report, double untraced_solve_s, double model_apply_s) const {
    const std::size_t k = solve_s.size();
    report.set("solver.apply_s", median(apply_s), k);
    report.set("solver.apply_calls", median(apply_calls), k);
    report.set("solver.reduce_s", median(reduce_s), k);
    report.set("solver.reduce_calls", median(reduce_calls), k);
    report.set("solver.vector_pass_s", median(vector_pass_s), k);
    report.set("solver.vector_pass_calls", median(vector_pass_calls), k);
    report.set("solver.unattributed_s", median(unattributed_s), k);
    report.set("trace.solve_s", median(solve_s), k);
    report.set("trace.overhead_ratio", median(solve_s) / untraced_solve_s, k);
    report.set("model.apply_ratio", median(apply_s) / median(apply_calls) / model_apply_s, k);
  }
};

/// Timings of the repeated set-up builds.
struct SetupSamples {
  std::vector<double> total_s, box_mesh_s, build_s, make_s;

  void report_to(Report& report) const {
    const std::size_t k = total_s.size();
    if (report.trace()) {
      report.set("sem.box_mesh_s", median(box_mesh_s), k);
      report.set("solver.setup_build_s", median(build_s), k);
      report.set("backend.make_s", median(make_s), k);
    } else {
      report.set("setup_s", median(total_s), k);
    }
  }
};

/// End-to-end metrics of an untraced solve phase.
void report_end_to_end(const std::vector<double>& solve_s, Report& report) {
  report.set("solve_s", median(solve_s), solve_s.size());
  // Back-to-back solves: the rate at the median solve time.
  report.set("req_per_s", 1.0 / median(solve_s), solve_s.size());
  report.set("peak_rss_mb", peak_rss_mb(), 1);
}

// ---------------------------------------------------------------------------
// solve_n7_large
// ---------------------------------------------------------------------------

/// Everything a single-rank solve needs, built from nothing.
struct SingleRankBuild {
  std::unique_ptr<solver::PoissonSystem> system;
  aligned_vector<double> b;
  std::unique_ptr<backend::Backend> backend;
};

SingleRankBuild build_single_rank(const SolveSpec& spec, std::uint64_t seed,
                                  SetupSamples& samples) {
  SingleRankBuild out;
  const double t0 = now_s();
  sem::Mesh mesh = sem::box_mesh(box_of(spec));
  const double t1 = now_s();
  out.system = std::make_unique<solver::PoissonSystem>(
      solver::SystemSetup::build_owning(std::move(mesh)));
  out.system->set_threads(spec.threads);
  const double t2 = now_s();
  const std::size_t n = out.system->n_local();
  aligned_vector<double> f(n);
  out.b.assign(n, 0.0);
  out.system->sample(seeded_forcing(seed), std::span<double>(f.data(), n));
  out.system->assemble_rhs(std::span<const double>(f.data(), n),
                           std::span<double>(out.b.data(), n));
  const double t3 = now_s();
  backend::MakeOptions make_options;
  make_options.vector_threads = spec.threads;
  out.backend = backend::make("cpu", *out.system, make_options);
  const double t4 = now_s();
  samples.total_s.push_back(t4 - t0);
  samples.box_mesh_s.push_back(t1 - t0);
  samples.build_s.push_back(t2 - t1);
  samples.make_s.push_back(t4 - t3);
  return out;
}

}  // namespace

WorkloadShape solve_n7_large_shape(bool tiny) {
  const SolveSpec s = n7_spec(tiny);
  return {s.name, s.threads, s.ranks, working_set_bytes(s)};
}

WorkloadShape ranks_n3_3d_shape(bool tiny) {
  const SolveSpec s = ranks_spec(tiny);
  return {s.name, s.threads, s.ranks, working_set_bytes(s)};
}

void run_solve_n7_large(const Options& options, Report& report) {
  const SolveSpec spec = n7_spec(options.tiny);
  SetupSamples setup;
  SingleRankBuild build;
  auto setup_batch = [&] {
    const double start = now_s();
    for (std::size_t done = 0; more_setup_reps(options, done, now_s() - start); ++done) {
      // Free the previous build first (backend before the system it
      // references), so peak memory holds one build.
      build.backend.reset();
      build.system.reset();
      build = build_single_rank(spec, options.seed, setup);
    }
  };
  setup_batch();

  const std::size_t n = build.system->n_local();
  aligned_vector<double> x(n);
  const std::span<double> xs(x.data(), n);
  Reference ref;

  // One solve from a zero guess; checks it against the reference (the
  // first solve becomes the reference) and returns its wall seconds.
  auto solve_once = [&](backend::Backend& be, const solver::CgOptions& cg_opts, int index) {
    std::fill(x.begin(), x.end(), 0.0);
    const double t0 = now_s();
    const solver::CgResult cg =
        solver::solve_cg(be, std::span<const double>(build.b.data(), n), xs, cg_opts);
    const double seconds = now_s() - t0;
    if (ref.x.empty()) {
      ref = Reference{cg.iterations, cg.final_residual, std::vector<double>(x.begin(), x.end())};
      report.check(cg.converged, "solve_n7_large: first solve did not converge");
      return seconds;
    }
    if (options.perturb && index == 1) {
      perturb(x[n / 2]);
    }
    report.check(matches(ref, cg) && same_bits(xs, ref.x),
                 "solve_n7_large: solve " + std::to_string(index) +
                     " differs bitwise from the first solve");
    return seconds;
  };

  // Untraced phase: the whole window, or the first half of a traced run.
  const double phase_s = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> solve_s;
  (void)solve_once(*build.backend, cg_options(), 0);  // warm-up, becomes the reference
  int index = 1;
  const double start = now_s();
  while (static_cast<int>(solve_s.size()) < kMinSolves || now_s() - start < phase_s) {
    solve_s.push_back(solve_once(*build.backend, cg_options(), index++));
  }
  if (!options.trace) {
    setup_batch();
    setup.report_to(report);
    report_end_to_end(solve_s, report);
    return;
  }

  // Traced phase: same solve through the Backend decorator; every solve
  // must still reproduce the untraced reference bitwise.
  TimedBackend traced(*build.backend);
  LayerSamples layers;
  const double traced_start = now_s();
  while (layers.solve_s.size() < static_cast<std::size_t>(kMinSolves) ||
         now_s() - traced_start < phase_s) {
    traced.reset();
    const double seconds = solve_once(traced, cg_options(), index++);
    layers.add(seconds, traced.totals());
  }
  report.set("solver.iterations", ref.iterations, layers.solve_s.size());
  const double model_s = report_kernel_layers(*build.system, spec.threads, ref.x, report);
  layers.report_to(report, median(solve_s), model_s);
  setup_batch();
  setup.report_to(report);
}

// ---------------------------------------------------------------------------
// ranks_n3_3d
// ---------------------------------------------------------------------------

namespace {

constexpr runtime::PartitionKind kPartition = runtime::PartitionKind::kBlock3d;

runtime::RankSystemOptions rank_options() {
  runtime::RankSystemOptions o;
  o.kind = solver::OperatorKind::kPoisson;
  o.overlap = true;
  return o;
}

/// Builds mesh, partition, fabric and every rank's system, RHS and backend
/// once, then tears them down: one set-up sample.
void time_rank_setup(const SolveSpec& spec, std::uint64_t seed, SetupSamples& samples) {
  const double t0 = now_s();
  const sem::BoxMeshSpec box = box_of(spec);
  const sem::Mesh mesh = sem::box_mesh(box);
  const double t1 = now_s();
  const runtime::BlockPartition part = runtime::partition_blocks(box, spec.ranks, kPartition);
  runtime::InProcessFabric fabric(spec.ranks, elements_of(spec));
  std::vector<double> build_s(static_cast<std::size_t>(spec.ranks));
  std::vector<double> make_s(static_cast<std::size_t>(spec.ranks));
  const auto forcing = seeded_forcing(seed);
  runtime::spmd_run(fabric, spec.threads, [&](const runtime::RankEnv& env) {
    const auto r = static_cast<std::size_t>(env.rank);
    const double b0 = now_s();
    runtime::RankSystem rs(mesh, part, env.rank, fabric, env.team_threads, rank_options());
    build_s[r] = now_s() - b0;
    const std::size_t n = rs.n_local();
    aligned_vector<double> f(n);
    aligned_vector<double> b(n);
    rs.sample(forcing, std::span<double>(f.data(), n));
    rs.assemble_rhs(std::span<const double>(f.data(), n), std::span<double>(b.data(), n));
    const double m0 = now_s();
    const auto be = backend::make_rank("cpu", rs);
    make_s[r] = now_s() - m0;
  });
  samples.total_s.push_back(now_s() - t0);
  samples.box_mesh_s.push_back(t1 - t0);
  samples.build_s.push_back(*std::max_element(build_s.begin(), build_s.end()));
  samples.make_s.push_back(*std::max_element(make_s.begin(), make_s.end()));
}

/// What one rank-team session measured.
struct RankSession {
  std::vector<double> solve_s;      ///< rank 0, barrier to barrier
  LayerSamples layers;              ///< rank 0's backend, traced sessions only
  std::vector<BackendTotals> rank_backend;  ///< per rank, summed over solves
  std::vector<FabricTotals> rank_fabric;    ///< per rank, summed over solves
};

/// Runs a rank team that builds its systems (untimed), then repeats the
/// distributed solve for `seconds`, checking each against the single-rank
/// reference.  `traced` routes the team through the Fabric and Backend
/// decorators.
RankSession run_rank_session(const SolveSpec& spec, const sem::Mesh& mesh,
                             const runtime::BlockPartition& part, const Options& options,
                             const Reference& ref, bool traced, double seconds,
                             int first_index, Report& report) {
  const auto n_ranks = static_cast<std::size_t>(spec.ranks);
  const std::size_t ppe = mesh.points_per_element();
  runtime::InProcessFabric raw(spec.ranks, elements_of(spec));
  TimedFabric timed_fabric(raw);
  runtime::Fabric& fabric = traced ? static_cast<runtime::Fabric&>(timed_fabric) : raw;
  const auto forcing = seeded_forcing(options.seed);

  RankSession out;
  out.rank_backend.resize(n_ranks);
  std::vector<char> mismatch(n_ranks, 0);  // one slot per rank
  std::atomic<bool> stop{false};
  double start = 0.0;  // rank 0 only

  runtime::spmd_run(raw, spec.threads, [&](const runtime::RankEnv& env) {
    const int r = env.rank;
    runtime::RankSystem rs(mesh, part, r, fabric, env.team_threads, rank_options());
    const std::size_t n = rs.n_local();
    aligned_vector<double> f(n);
    aligned_vector<double> b(n);
    rs.sample(forcing, std::span<double>(f.data(), n));
    rs.assemble_rhs(std::span<const double>(f.data(), n), std::span<double>(b.data(), n));
    const auto inner = backend::make_rank("cpu", rs);
    TimedBackend timed_backend(*inner);
    backend::Backend& be = traced ? static_cast<backend::Backend&>(timed_backend) : *inner;
    aligned_vector<double> x(n);
    const std::span<double> xs(x.data(), n);

    const solver::CgOptions cg_opts = cg_options();
    const std::vector<std::int64_t>& ids = rs.element_global_ids();
    // The first solve of a session is a checked but untimed warm-up.
    for (int i = first_index;; ++i) {
      const bool warm_up = i == first_index;
      std::fill(x.begin(), x.end(), 0.0);
      const BackendTotals before = timed_backend.totals();
      raw.barrier(r);
      const double t0 = now_s();
      const solver::CgResult cg = solver::solve_cg(be, b, xs, cg_opts);
      raw.barrier(r);
      if (warm_up) {
        // Drop the set-up's and the warm-up's traffic and samples.
        timed_fabric.reset(r);
        timed_backend.reset();
        if (r == 0) {
          start = now_s();
        }
      } else if (r == 0) {
        const double solve = now_s() - t0;
        out.solve_s.push_back(solve);
        if (traced) {
          const BackendTotals& after = timed_backend.totals();
          out.layers.add(solve, BackendTotals{after.apply_s - before.apply_s,
                                              after.reduce_s - before.reduce_s,
                                              after.vector_pass_s - before.vector_pass_s,
                                              after.apply_calls - before.apply_calls,
                                              after.reduce_calls - before.reduce_calls,
                                              after.vector_pass_calls - before.vector_pass_calls});
        }
      }
      if (options.perturb && r == 0 && i == 1) {
        perturb(x[0]);
      }
      // Distributed == single-rank: this rank's elements, bit for bit.
      bool ok = matches(ref, cg);
      for (std::size_t e = 0; ok && e < ids.size(); ++e) {
        ok = std::memcmp(x.data() + e * ppe, ref.x.data() + static_cast<std::size_t>(ids[e]) * ppe,
                         ppe * sizeof(double)) == 0;
      }
      mismatch[static_cast<std::size_t>(r)] = ok ? 0 : 1;
      raw.barrier(r);
      if (r == 0) {
        const bool bad = std::find(mismatch.begin(), mismatch.end(), 1) != mismatch.end();
        report.check(!bad, "ranks_n3_3d: distributed solve " + std::to_string(i) +
                               " differs bitwise from the single-rank solve");
        stop.store(static_cast<int>(out.solve_s.size()) >= kMinSolves &&
                   now_s() - start >= seconds);
      }
      raw.barrier(r);
      if (stop.load()) {
        break;
      }
    }
    out.rank_backend[static_cast<std::size_t>(r)] = timed_backend.totals();
  });
  for (std::size_t r = 0; r < n_ranks; ++r) {
    out.rank_fabric.push_back(timed_fabric.totals(static_cast<int>(r)));
  }
  return out;
}

/// runtime.* metrics: per-solve means per rank, reported as max and min.
void report_runtime_layers(const RankSession& s, Report& report) {
  const auto k = static_cast<double>(s.solve_s.size());
  auto extremes = [&](const char* max_name, const char* min_name, auto field) {
    std::vector<double> per_rank;
    for (std::size_t r = 0; r < s.rank_fabric.size(); ++r) {
      per_rank.push_back(field(r) / k);
    }
    report.set(max_name, *std::max_element(per_rank.begin(), per_rank.end()), s.solve_s.size());
    report.set(min_name, *std::min_element(per_rank.begin(), per_rank.end()), s.solve_s.size());
  };
  extremes("runtime.send_max_s", "runtime.send_min_s",
           [&](std::size_t r) { return s.rank_fabric[r].send_s; });
  extremes("runtime.recv_wait_max_s", "runtime.recv_wait_min_s",
           [&](std::size_t r) { return s.rank_fabric[r].recv_wait_s; });
  extremes("runtime.allreduce_max_s", "runtime.allreduce_min_s",
           [&](std::size_t r) { return s.rank_fabric[r].allreduce_s; });
  extremes("runtime.barrier_max_s", "runtime.barrier_min_s",
           [&](std::size_t r) { return s.rank_fabric[r].barrier_s; });
  extremes("runtime.rank_apply_max_s", "runtime.rank_apply_min_s",
           [&](std::size_t r) { return s.rank_backend[r].apply_s; });
  double messages = 0.0;
  double bytes = 0.0;
  for (const FabricTotals& t : s.rank_fabric) {
    messages += static_cast<double>(t.messages);
    bytes += static_cast<double>(t.halo_bytes);
  }
  report.set("runtime.messages", messages / k, s.solve_s.size());
  report.set("runtime.halo_bytes", bytes / k, s.solve_s.size());
}

}  // namespace

void run_ranks_n3_3d(const Options& options, Report& report) {
  const SolveSpec spec = ranks_spec(options.tiny);
  const sem::BoxMeshSpec box = box_of(spec);

  SetupSamples setup;
  auto setup_batch = [&] {
    const double start = now_s();
    for (std::size_t done = 0; more_setup_reps(options, done, now_s() - start); ++done) {
      time_rank_setup(spec, options.seed, setup);
    }
  };
  setup_batch();

  // The distributed == single-rank oracle, built and solved once, untimed.
  const sem::Mesh mesh = sem::box_mesh(box);
  solver::PoissonSystem single(mesh);
  single.set_threads(spec.threads);
  const std::size_t n = single.n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  single.sample(seeded_forcing(options.seed), std::span<double>(f.data(), n));
  single.assemble_rhs(std::span<const double>(f.data(), n), std::span<double>(b.data(), n));
  aligned_vector<double> x(n, 0.0);
  const solver::CgResult cg = solver::solve_cg(single, std::span<const double>(b.data(), n),
                                               std::span<double>(x.data(), n), cg_options());
  const Reference ref{cg.iterations, cg.final_residual, std::vector<double>(x.begin(), x.end())};
  report.check(cg.converged, "ranks_n3_3d: single-rank reference did not converge");

  const runtime::BlockPartition part = runtime::partition_blocks(box, spec.ranks, kPartition);
  const double phase_s = options.trace ? options.seconds / 2.0 : options.seconds;
  const RankSession plain =
      run_rank_session(spec, mesh, part, options, ref, false, phase_s, 0, report);
  if (!options.trace) {
    setup_batch();
    setup.report_to(report);
    report_end_to_end(plain.solve_s, report);
    return;
  }
  const RankSession traced = run_rank_session(spec, mesh, part, options, ref, true, phase_s,
                                              static_cast<int>(plain.solve_s.size()) + 1, report);
  report.set("solver.iterations", ref.iterations, traced.solve_s.size());
  report_runtime_layers(traced, report);
  const double model_s = report_kernel_layers(single, spec.threads, ref.x, report);
  traced.layers.report_to(report, median(plain.solve_s), model_s);
  setup_batch();
  setup.report_to(report);
}

}  // namespace perfbench
