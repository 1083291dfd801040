/// Contract of the HelmholtzSystem (the BK5 solve workload):
///  * the fused Helmholtz sweep is *bitwise* identical to the split
///    helmholtz_run -> qqt -> mask path, for every engine variant, at
///    every thread count, masked and unmasked;
///  * lambda = 0 makes the system bitwise indistinguishable from
///    PoissonSystem (operator, diagonal, and a whole CG solve);
///  * the Jacobi diagonal picks up the assembled mass term;
///  * the CG solve converges spectrally on the manufactured solution and
///    is bitwise deterministic under re-threading;
///  * the Chebyshev smoother runs the Helmholtz operator through the same
///    Backend seam, fused vs split bitwise equal.

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sem/dense.hpp"
#include "solver/cg.hpp"
#include "solver/chebyshev.hpp"
#include "solver/helmholtz_system.hpp"

namespace semfpga::solver {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kLambda = 1.75;

sem::Mesh make_mesh(int degree, sem::Deformation def = sem::Deformation::kSine) {
  sem::BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = spec.nely = spec.nelz = 2;
  spec.deformation = def;
  spec.deformation_amplitude = 0.04;
  return sem::box_mesh(spec);
}

aligned_vector<double> random_field(std::size_t n, std::uint64_t seed) {
  aligned_vector<double> v(n);
  SplitMix64 rng(seed);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

using FusedCase = std::tuple<int, kernels::AxVariant>;

class HelmholtzFusedParity : public ::testing::TestWithParam<FusedCase> {};

TEST_P(HelmholtzFusedParity, FusedApplyIsBitwiseEqualToSplitAtAnyThreadCount) {
  const auto [degree, variant] = GetParam();
  const sem::Mesh mesh = make_mesh(degree);
  HelmholtzSystem system(mesh, kLambda);
  system.set_ax_variant(variant);

  const std::size_t n = system.n_local();
  const aligned_vector<double> u =
      random_field(n, 211 + static_cast<std::uint64_t>(degree));
  aligned_vector<double> w_split(n, 0.0);
  aligned_vector<double> w_fused(n, 0.0);

  // The split serial apply is the oracle for every (fused, threads) cell.
  system.set_threads(1);
  system.set_fused(false);
  system.apply(std::span<const double>(u.data(), n),
               std::span<double>(w_split.data(), n));

  system.set_fused(true);
  for (const int threads : {1, 2, 4}) {
    system.set_threads(threads);
    std::fill(w_fused.begin(), w_fused.end(), 0.0);
    system.apply(std::span<const double>(u.data(), n),
                 std::span<double>(w_fused.data(), n));
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_EQ(w_fused[p], w_split[p])
          << kernels::ax_variant_name(variant) << " dof " << p << " at " << threads
          << " threads";
    }
  }
}

TEST_P(HelmholtzFusedParity, UnmaskedApplyIsBitwiseEqualToSplit) {
  const auto [degree, variant] = GetParam();
  const sem::Mesh mesh = make_mesh(degree);
  HelmholtzSystem system(mesh, kLambda);
  system.set_ax_variant(variant);

  const std::size_t n = system.n_local();
  const aligned_vector<double> u =
      random_field(n, 223 + static_cast<std::uint64_t>(degree));
  aligned_vector<double> w_split(n, 0.0);
  aligned_vector<double> w_fused(n, 0.0);

  system.set_fused(false);
  system.apply_unmasked(std::span<const double>(u.data(), n),
                        std::span<double>(w_split.data(), n));
  system.set_fused(true);
  system.set_threads(4);
  system.apply_unmasked(std::span<const double>(u.data(), n),
                        std::span<double>(w_fused.data(), n));
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(w_fused[p], w_split[p]) << "dof " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees3To9, HelmholtzFusedParity,
    ::testing::Combine(::testing::Values(3, 5, 7, 9),
                       ::testing::ValuesIn(kernels::kAllAxVariants)),
    [](const ::testing::TestParamInfo<FusedCase>& tpi) {
      return std::string("N") + std::to_string(std::get<0>(tpi.param)) + "_" +
             kernels::ax_variant_name(std::get<1>(tpi.param));
    });

TEST(HelmholtzSystem, RejectsNegativeLambda) {
  const sem::Mesh mesh = make_mesh(3);
  EXPECT_THROW(HelmholtzSystem(mesh, -0.5), std::invalid_argument);
}

TEST(HelmholtzSystem, ReportsItsKindAndFlops) {
  const sem::Mesh mesh = make_mesh(3);
  HelmholtzSystem system(mesh, kLambda);
  EXPECT_EQ(system.operator_kind(), OperatorKind::kHelmholtz);
  EXPECT_STREQ(operator_kind_name(system.operator_kind()), "helmholtz");
  EXPECT_EQ(system.operator_flops(),
            kernels::helmholtz_flops(system.ref().n1d(), system.geom().n_elements));

  PoissonSystem poisson(mesh);
  EXPECT_EQ(poisson.operator_kind(), OperatorKind::kPoisson);
  EXPECT_EQ(poisson.operator_flops(),
            kernels::ax_flops(poisson.ref().n1d(), poisson.geom().n_elements));
}

TEST(HelmholtzSystem, LambdaZeroIsBitwiseThePoissonSystem) {
  const sem::Mesh mesh = make_mesh(5, sem::Deformation::kTwist);
  HelmholtzSystem helmholtz(mesh, 0.0);
  PoissonSystem poisson(mesh);

  const std::size_t n = poisson.n_local();
  ASSERT_EQ(helmholtz.n_local(), n);

  // Identical diagonal (the mass addend is skipped outright at zero)...
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(helmholtz.jacobi_diagonal()[p], poisson.jacobi_diagonal()[p]);
  }
  // ... and identical operator action, fused and split alike.
  const aligned_vector<double> u = random_field(n, 7);
  aligned_vector<double> w_h(n, 0.0), w_p(n, 0.0);
  for (const bool fused : {true, false}) {
    helmholtz.set_fused(fused);
    poisson.set_fused(fused);
    helmholtz.apply(std::span<const double>(u.data(), n),
                    std::span<double>(w_h.data(), n));
    poisson.apply(std::span<const double>(u.data(), n),
                  std::span<double>(w_p.data(), n));
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_EQ(w_h[p], w_p[p]) << "fused=" << fused << " dof " << p;
    }
  }
}

TEST(HelmholtzSystem, DiagonalPicksUpTheAssembledMassTerm) {
  const sem::Mesh mesh = make_mesh(4);
  HelmholtzSystem system(mesh, kLambda);

  // Rebuild the expectation with the same canonical machinery: the raw
  // stiffness diagonals, then lambda * mass in a pass of its own, assembled
  // by qqt, masked to 1.
  const std::size_t n = system.n_local();
  aligned_vector<double> expected(n);
  sem::local_diagonals(system.ref(), system.geom(), 0.0, expected);
  for (std::size_t p = 0; p < n; ++p) {
    expected[p] += kLambda * system.geom().mass[p];
  }
  system.gs().qqt(expected);
  for (std::size_t p = 0; p < n; ++p) {
    if (system.mask()[p] == 0.0) {
      expected[p] = 1.0;
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(system.jacobi_diagonal()[p], expected[p]) << "dof " << p;
  }

  // And the mass term strictly increases every unmasked diagonal entry
  // relative to the Poisson one (mass factors are positive).
  PoissonSystem poisson(mesh);
  for (std::size_t p = 0; p < n; ++p) {
    if (system.mask()[p] != 0.0) {
      ASSERT_GT(system.jacobi_diagonal()[p], poisson.jacobi_diagonal()[p]);
    }
  }
}

/// One full Helmholtz CG solve on the manufactured problem.
CgResult run_cg(double lambda, bool fused, int threads, std::vector<double>* history,
                aligned_vector<double>* solution) {
  sem::BoxMeshSpec spec;
  spec.degree = 6;
  spec.nelx = spec.nely = spec.nelz = 3;
  spec.deformation = sem::Deformation::kTwist;
  spec.deformation_amplitude = 0.03;
  const sem::Mesh mesh = sem::box_mesh(spec);
  HelmholtzSystem system(mesh, lambda);
  system.set_fused(fused);
  system.set_threads(threads);

  const std::size_t n = system.n_local();
  aligned_vector<double> f(n);
  system.sample(
      [lambda](double x, double y, double z) {
        return (3.0 * kPi * kPi + lambda) * std::sin(kPi * x) * std::sin(kPi * y) *
               std::sin(kPi * z);
      },
      std::span<double>(f.data(), n));
  aligned_vector<double> b(n);
  system.assemble_rhs(std::span<const double>(f.data(), n),
                      std::span<double>(b.data(), n));

  CgOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 400;
  options.use_jacobi = true;
  options.record_history = true;
  options.threads = threads;

  solution->assign(n, 0.0);
  const CgResult r = solve_cg(system, std::span<const double>(b.data(), n),
                              std::span<double>(solution->data(), n), options);
  *history = r.residual_history;
  return r;
}

TEST(HelmholtzCg, RethreadingTheFusedSolveIsBitwiseDeterministic) {
  std::vector<double> serial_history;
  aligned_vector<double> serial_x;
  const CgResult serial = run_cg(kLambda, /*fused=*/true, 1, &serial_history, &serial_x);
  ASSERT_TRUE(serial.converged);

  for (const int threads : {2, 4, 0}) {  // 0 = all hardware threads
    std::vector<double> history;
    aligned_vector<double> x;
    const CgResult r = run_cg(kLambda, /*fused=*/true, threads, &history, &x);
    ASSERT_EQ(r.iterations, serial.iterations) << threads << " threads";
    ASSERT_EQ(history.size(), serial_history.size());
    for (std::size_t i = 0; i < history.size(); ++i) {
      ASSERT_EQ(history[i], serial_history[i])
          << "iteration " << i << " at " << threads << " threads";
    }
    for (std::size_t p = 0; p < x.size(); ++p) {
      ASSERT_EQ(x[p], serial_x[p]) << "solution dof " << p;
    }
  }
}

TEST(HelmholtzCg, FusedAndSplitSolvesAreBitwiseEqual) {
  std::vector<double> split_history, fused_history;
  aligned_vector<double> split_x, fused_x;
  const CgResult split = run_cg(kLambda, /*fused=*/false, 2, &split_history, &split_x);
  const CgResult fused = run_cg(kLambda, /*fused=*/true, 2, &fused_history, &fused_x);

  ASSERT_TRUE(split.converged);
  ASSERT_EQ(fused.iterations, split.iterations);
  ASSERT_EQ(fused_history.size(), split_history.size());
  for (std::size_t i = 0; i < fused_history.size(); ++i) {
    ASSERT_EQ(fused_history[i], split_history[i]) << "iteration " << i;
  }
  for (std::size_t p = 0; p < fused_x.size(); ++p) {
    ASSERT_EQ(fused_x[p], split_x[p]) << "solution dof " << p;
  }
}

TEST(HelmholtzCg, ConvergesSpectrallyOnTheManufacturedSolution) {
  // -lap u + lambda u = (3 pi^2 + lambda) u with u the product of sines:
  // at degree 8 on 2^3 elements the nodal max error must be deep below any
  // h-refinement rate.
  sem::BoxMeshSpec spec;
  spec.degree = 8;
  spec.nelx = spec.nely = spec.nelz = 2;
  const sem::Mesh mesh = sem::box_mesh(spec);
  HelmholtzSystem system(mesh, kLambda);

  const std::size_t n = system.n_local();
  aligned_vector<double> f(n), b(n), x(n, 0.0);
  system.sample(
      [](double px, double py, double pz) {
        return (3.0 * kPi * kPi + kLambda) * std::sin(kPi * px) * std::sin(kPi * py) *
               std::sin(kPi * pz);
      },
      std::span<double>(f.data(), n));
  system.assemble_rhs(std::span<const double>(f.data(), n),
                      std::span<double>(b.data(), n));

  CgOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 2000;
  options.use_jacobi = true;
  const CgResult r = solve_cg(system, std::span<const double>(b.data(), n),
                              std::span<double>(x.data(), n), options);
  ASSERT_TRUE(r.converged);

  aligned_vector<double> exact(n);
  system.sample(
      [](double px, double py, double pz) {
        return std::sin(kPi * px) * std::sin(kPi * py) * std::sin(kPi * pz);
      },
      std::span<double>(exact.data(), n));
  double err = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    err = std::max(err, std::abs(x[p] - exact[p]));
  }
  EXPECT_LT(err, 1e-6);
}

TEST(HelmholtzChebyshev, FusedAndSplitPreconditionedSolvesAreBitwiseEqual) {
  // The smoother routes every apply through the Backend seam, so it must
  // inherit the Helmholtz fused/split parity wholesale — and the diagonal
  // it smooths with carries the mass term.
  const sem::Mesh mesh = make_mesh(5);
  auto run = [&](bool fused) {
    HelmholtzSystem system(mesh, kLambda);
    system.set_fused(fused);
    system.set_threads(2);
    const std::size_t n = system.n_local();
    aligned_vector<double> f(n), b(n), x(n, 0.0);
    system.sample(
        [](double px, double py, double pz) {
          return (3.0 * kPi * kPi + kLambda) * std::sin(kPi * px) *
                 std::sin(kPi * py) * std::sin(kPi * pz);
        },
        std::span<double>(f.data(), n));
    system.assemble_rhs(std::span<const double>(f.data(), n),
                        std::span<double>(b.data(), n));

    ChebyshevPreconditioner precond(system, /*order=*/3);
    CgOptions options;
    options.tolerance = 1e-10;
    options.max_iterations = 200;
    options.record_history = true;
    options.preconditioner = [&](std::span<const double> r, std::span<double> z) {
      precond.apply(r, z);
    };
    const CgResult r = solve_cg(system, std::span<const double>(b.data(), n),
                                std::span<double>(x.data(), n), options);
    return std::make_pair(r, std::move(x));
  };

  const auto [r_split, x_split] = run(false);
  const auto [r_fused, x_fused] = run(true);
  ASSERT_TRUE(r_split.converged);
  ASSERT_EQ(r_fused.iterations, r_split.iterations);
  ASSERT_EQ(r_fused.residual_history.size(), r_split.residual_history.size());
  for (std::size_t i = 0; i < r_fused.residual_history.size(); ++i) {
    ASSERT_EQ(r_fused.residual_history[i], r_split.residual_history[i])
        << "iteration " << i;
  }
  for (std::size_t p = 0; p < x_fused.size(); ++p) {
    ASSERT_EQ(x_fused[p], x_split[p]) << "dof " << p;
  }
}

}  // namespace
}  // namespace semfpga::solver
