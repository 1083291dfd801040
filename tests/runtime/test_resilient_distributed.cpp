/// The resilient distributed driver's contracts: (1) with no faults
/// scripted, checkpointing-on is bitwise identical to the plain
/// solve_distributed_poisson (and to the single-rank oracle) at every
/// ranks × threads × backend combination; (2) the scripted fault matrix
/// {crash, delay, drop, nan, stall} × {1 rank, 4 ranks} either recovers to
/// the undisturbed tolerance or throws a typed error carrying a non-empty
/// report — and never deadlocks, because every blocking fabric call is
/// bounded.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "runtime/distributed_cg.hpp"
#include "solver/cg.hpp"
#include "solver/helmholtz_system.hpp"

namespace semfpga::runtime {
namespace {

constexpr double kPi = 3.14159265358979323846;

double forcing(double x, double y, double z) {
  return std::sin(kPi * x) * std::sin(kPi * y) * std::sin(kPi * z);
}

sem::BoxMeshSpec test_spec() {
  sem::BoxMeshSpec spec;
  spec.degree = 3;
  spec.nelx = 2;
  spec.nely = 2;
  spec.nelz = 4;
  return spec;
}

struct Reference {
  solver::CgResult cg;
  aligned_vector<double> x;
};

/// The single-rank oracle on the global mesh (Poisson or Helmholtz).
Reference single_rank(const sem::BoxMeshSpec& spec, const solver::CgOptions& options,
                      solver::OperatorKind kind = solver::OperatorKind::kPoisson,
                      double lambda = 1.0) {
  const sem::Mesh mesh = sem::box_mesh(spec);
  const std::unique_ptr<solver::PoissonSystem> system =
      kind == solver::OperatorKind::kHelmholtz
          ? std::make_unique<solver::HelmholtzSystem>(mesh, lambda)
          : std::make_unique<solver::PoissonSystem>(mesh);
  const std::size_t n = system->n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  Reference ref;
  ref.x.assign(n, 0.0);
  system->sample(forcing, std::span<double>(f.data(), n));
  system->assemble_rhs(std::span<const double>(f.data(), n),
                       std::span<double>(b.data(), n));
  ref.cg = solver::solve_cg(*system, std::span<const double>(b.data(), n),
                            std::span<double>(ref.x.data(), n), options);
  return ref;
}

void expect_bitwise_equal(const Reference& want, const DistributedSolveResult& got,
                          const std::string& label) {
  ASSERT_EQ(got.cg.iterations, want.cg.iterations) << label;
  EXPECT_EQ(got.cg.converged, want.cg.converged) << label;
  EXPECT_EQ(got.cg.final_residual, want.cg.final_residual) << label;
  ASSERT_EQ(got.cg.residual_history.size(), want.cg.residual_history.size()) << label;
  for (std::size_t i = 0; i < want.cg.residual_history.size(); ++i) {
    ASSERT_EQ(got.cg.residual_history[i], want.cg.residual_history[i])
        << label << " iteration " << i;
  }
  ASSERT_EQ(got.x.size(), want.x.size()) << label;
  for (std::size_t p = 0; p < want.x.size(); ++p) {
    ASSERT_EQ(got.x[p], want.x[p]) << label << " dof " << p;
  }
}

/// Supervised-solve config over the shared test problem.
ResilientSolveConfig make_config(int ranks, const std::string& faults,
                                 const solver::CgOptions& options) {
  ResilientSolveConfig config;
  config.base.spec = test_spec();
  config.base.ranks = ranks;
  config.base.threads = 1;
  config.base.cg = options;
  config.base.forcing = forcing;
  config.base.fabric_timeout_seconds = 0.2;  // faults surface fast in tests
  config.faults = faults;
  config.checkpoint_every = 4;
  return config;
}

solver::CgOptions converging_options() {
  solver::CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;
  options.record_history = true;
  return options;
}

TEST(ResilientDistributed, FaultFreeCheckpointingIsBitwiseIdentical) {
  const sem::BoxMeshSpec spec = test_spec();
  solver::CgOptions options;
  options.max_iterations = 25;
  options.tolerance = 1e-12;
  options.use_jacobi = false;
  options.record_history = true;
  const Reference want = single_rank(spec, options);
  ASSERT_GT(want.cg.iterations, 4);

  for (const char* backend : {"cpu", "fpga-sim"}) {
    for (const int ranks : {1, 2, 4}) {
      for (const int threads : {1, 2}) {
        ResilientSolveConfig config = make_config(ranks, "", options);
        config.base.threads = threads;
        config.base.backend = backend;
        config.base.fabric_timeout_seconds = 30.0;
        const ResilientSolveResult got = solve_distributed_resilient(config);
        const std::string label = std::string(backend) + " ranks=" +
                                  std::to_string(ranks) + " threads=" +
                                  std::to_string(threads);
        expect_bitwise_equal(want, got.solve, label);
        EXPECT_EQ(got.final_ranks, ranks) << label;
        // Checkpoints were committed, but nothing else happened.
        EXPECT_GT(got.report.checkpoints_taken, 0) << label;
        EXPECT_TRUE(got.report.empty()) << label << "\n" << got.report.to_string();
      }
    }
  }
}

TEST(ResilientDistributed, CrashShrinksAndResolvesToTolerance) {
  const solver::CgOptions options = converging_options();
  const Reference want = single_rank(test_spec(), options);

  ResilientSolveConfig config = make_config(4, "crash@r2:i5", options);
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_EQ(got.final_ranks, 3);
  EXPECT_EQ(got.report.degraded_ranks, 1);
  EXPECT_GE(got.report.checkpoints_restored, 1);
  EXPECT_FALSE(got.report.events.empty());
  EXPECT_TRUE(got.solve.cg.converged);
  EXPECT_LE(got.solve.cg.final_residual, options.tolerance);
  // Recovery restarts CG from the committed x, so the trajectory differs —
  // but the answer must match the undisturbed solve to solver accuracy.
  ASSERT_EQ(got.solve.x.size(), want.x.size());
  for (std::size_t p = 0; p < want.x.size(); ++p) {
    ASSERT_NEAR(got.solve.x[p], want.x[p], 1e-8) << "dof " << p;
  }
}

TEST(ResilientDistributed, CrashAtTheRankFloorRetriesInPlace) {
  const solver::CgOptions options = converging_options();
  ResilientSolveConfig config = make_config(1, "crash@r0:i3", options);
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_EQ(got.final_ranks, 1);
  EXPECT_EQ(got.report.degraded_ranks, 0);
  EXPECT_GE(got.report.retries, 1);
  EXPECT_TRUE(got.solve.cg.converged);
  EXPECT_LE(got.solve.cg.final_residual, options.tolerance);
}

TEST(ResilientDistributed, DelayedHaloIsHarmlessAndBitwiseIdentical) {
  // A delay under the fabric deadline changes timing only: the iterates
  // must stay bitwise identical to the undisturbed solve.
  const solver::CgOptions options = converging_options();
  const Reference want = single_rank(test_spec(), options);

  ResilientSolveConfig config = make_config(4, "delay@r1:i2:s0.05", options);
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_EQ(got.report.timeouts, 0);
  EXPECT_EQ(got.report.numerical_faults, 0);
  ASSERT_EQ(got.report.events.size(), 1u);
  EXPECT_NE(got.report.events[0].find("delay"), std::string::npos);
  expect_bitwise_equal(want, got.solve, "delayed halo");
}

TEST(ResilientDistributed, DroppedHaloTimesOutAndRetries) {
  const solver::CgOptions options = converging_options();
  ResilientSolveConfig config = make_config(4, "drop@r1:i3", options);
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_GE(got.report.timeouts, 1);
  EXPECT_EQ(got.final_ranks, 4);
  EXPECT_TRUE(got.solve.cg.converged);
  EXPECT_LE(got.solve.cg.final_residual, options.tolerance);
}

TEST(ResilientDistributed, NanCorruptedHaloRollsBackCollectively) {
  const solver::CgOptions options = converging_options();
  ResilientSolveConfig config = make_config(4, "nan@r1:i5", options);
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_GE(got.report.numerical_faults, 1);
  EXPECT_EQ(got.final_ranks, 4);
  EXPECT_TRUE(got.solve.cg.converged);
  EXPECT_LE(got.solve.cg.final_residual, options.tolerance);
}

TEST(ResilientDistributed, StalledAllreduceTimesOutAndRetries) {
  const solver::CgOptions options = converging_options();
  // No :sSECONDS — the driver must default the stall past the 0.2 s fabric
  // deadline so the peers' bounded waits expire deterministically.
  ResilientSolveConfig config = make_config(4, "stall@r3:i4", options);
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_GE(got.report.timeouts, 1);
  EXPECT_EQ(got.final_ranks, 4);
  EXPECT_TRUE(got.solve.cg.converged);
  EXPECT_LE(got.solve.cg.final_residual, options.tolerance);
}

TEST(ResilientDistributed, SingleRankFaultMatrixNeverDeadlocks) {
  // At one rank there is no halo traffic and no peer to time out: halo
  // faults stay dormant, a stall has no peer to outlast, a crash retries in
  // place.  Every case must complete (bounded waits guarantee no deadlock).
  const solver::CgOptions options = converging_options();
  for (const char* faults :
       {"crash@r0:i3", "delay@r0:i2", "drop@r0:i3", "nan@r0:i5", "stall@r0:i4"}) {
    ResilientSolveConfig config = make_config(1, faults, options);
    const ResilientSolveResult got = solve_distributed_resilient(config);
    EXPECT_TRUE(got.solve.cg.converged) << faults;
    EXPECT_LE(got.solve.cg.final_residual, options.tolerance) << faults;
    EXPECT_EQ(got.final_ranks, 1) << faults;
  }
}

TEST(ResilientDistributed, HelmholtzSolveRecoversFromCorruption) {
  const solver::CgOptions options = converging_options();
  const Reference want =
      single_rank(test_spec(), options, solver::OperatorKind::kHelmholtz, 2.5);

  ResilientSolveConfig config = make_config(4, "nan@r2:i4", options);
  config.base.operator_kind = solver::OperatorKind::kHelmholtz;
  config.base.helmholtz_lambda = 2.5;
  const ResilientSolveResult got = solve_distributed_resilient(config);

  EXPECT_GE(got.report.numerical_faults, 1);
  EXPECT_TRUE(got.solve.cg.converged);
  ASSERT_EQ(got.solve.x.size(), want.x.size());
  for (std::size_t p = 0; p < want.x.size(); ++p) {
    ASSERT_NEAR(got.solve.x[p], want.x[p], 1e-8) << "dof " << p;
  }
}

TEST(ResilientDistributed, RepeatedCrashesExhaustTheBudget) {
  const solver::CgOptions options = converging_options();
  // One rank (no shrink possible) and more scripted crashes than retries.
  ResilientSolveConfig config =
      make_config(1, "crash@r0:i2,crash@r0:i4,crash@r0:i6,crash@r0:i8", options);
  config.max_retries = 2;
  try {
    (void)solve_distributed_resilient(config);
    FAIL() << "the crash script must exhaust the retry budget";
  } catch (const solver::ResilienceExhaustedError& e) {
    EXPECT_EQ(e.report().retries, 2);
    ASSERT_FALSE(e.report().events.empty());
    bool saw_rank_loss = false;
    for (const std::string& event : e.report().events) {
      saw_rank_loss = saw_rank_loss || event.find("rank loss") != std::string::npos;
    }
    EXPECT_TRUE(saw_rank_loss) << e.report().to_string();
  }
}

}  // namespace
}  // namespace semfpga::runtime
