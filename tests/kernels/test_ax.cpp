#include "kernels/ax.hpp"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sem/dense.hpp"

namespace semfpga::kernels {
namespace {

/// Shared workload: a small deformed mesh plus random input fields.
struct Workload {
  explicit Workload(int degree, sem::Deformation def = sem::Deformation::kSine,
                    int nel = 2, std::uint64_t seed = 77)
      : ref(degree) {
    sem::BoxMeshSpec spec;
    spec.degree = degree;
    spec.nelx = spec.nely = spec.nelz = nel;
    spec.deformation = def;
    spec.deformation_amplitude = 0.04;
    mesh = std::make_unique<sem::Mesh>(spec, ref);
    gf = sem::geometric_factors(*mesh, ref);
    const std::size_t n = mesh->n_local();
    u.resize(n);
    w.assign(n, 0.0);
    SplitMix64 rng(seed);
    for (double& v : u) {
      v = rng.uniform(-1.0, 1.0);
    }
  }

  [[nodiscard]] AxArgs args() {
    AxArgs a;
    a.u = u;
    a.w = w;
    a.g = std::span<const double>(gf.g.data(), gf.g.size());
    a.dx = std::span<const double>(ref.deriv().d.data(), ref.deriv().d.size());
    a.dxt = std::span<const double>(ref.deriv().dt.data(), ref.deriv().dt.size());
    a.n1d = ref.n1d();
    a.n_elements = gf.n_elements;
    return a;
  }

  sem::ReferenceElement ref;
  std::unique_ptr<sem::Mesh> mesh;
  sem::GeomFactors gf;
  std::vector<double> u;
  std::vector<double> w;
};

class AxVsDense : public ::testing::TestWithParam<int> {};

TEST_P(AxVsDense, MatchesDenseAssembly) {
  // The matrix-free kernel must agree with the independently assembled
  // dense local operator on every element of a deformed mesh.
  Workload wl(GetParam());
  ax_reference(wl.args());
  const std::size_t ppe = wl.ref.points_per_element();
  for (std::size_t e = 0; e < wl.gf.n_elements; ++e) {
    const auto a = sem::assemble_local_matrix(wl.ref, wl.gf, e);
    const std::vector<double> ue(wl.u.begin() + static_cast<long>(e * ppe),
                                 wl.u.begin() + static_cast<long>((e + 1) * ppe));
    const auto expected = sem::dense_apply(a, ue);
    for (std::size_t p = 0; p < ppe; ++p) {
      ASSERT_NEAR(wl.w[e * ppe + p], expected[p],
                  1e-10 * std::max(1.0, std::abs(expected[p])))
          << "element " << e << " dof " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, AxVsDense, ::testing::Values(1, 2, 3, 4));

class AxVariants : public ::testing::TestWithParam<int> {};

TEST_P(AxVariants, OmpMatchesReference) {
  Workload a(GetParam());
  Workload b(GetParam());
  ax_reference(a.args());
  ax_omp(b.args());
  for (std::size_t p = 0; p < a.w.size(); ++p) {
    ASSERT_DOUBLE_EQ(a.w[p], b.w[p]);
  }
}

TEST_P(AxVariants, FixedMatchesReference) {
  Workload a(GetParam());
  Workload b(GetParam());
  ax_reference(a.args());
  ax_fixed(b.args());
  for (std::size_t p = 0; p < a.w.size(); ++p) {
    ASSERT_NEAR(a.w[p], b.w[p], 1e-13 * std::max(1.0, std::abs(a.w[p])));
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, AxVariants,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 11, 15));

class AxProperties : public ::testing::TestWithParam<int> {};

TEST_P(AxProperties, ConstantsMapToZero) {
  Workload wl(GetParam());
  std::fill(wl.u.begin(), wl.u.end(), 3.7);
  ax_reference(wl.args());
  for (double v : wl.w) {
    EXPECT_NEAR(v, 0.0, 1e-9);
  }
}

TEST_P(AxProperties, OperatorIsLinear) {
  const int degree = GetParam();
  Workload wa(degree, sem::Deformation::kSine, 2, 1);
  Workload wb(degree, sem::Deformation::kSine, 2, 2);
  Workload wc(degree, sem::Deformation::kSine, 2, 3);
  const double alpha = 2.25, beta = -0.75;
  for (std::size_t p = 0; p < wc.u.size(); ++p) {
    wc.u[p] = alpha * wa.u[p] + beta * wb.u[p];
  }
  ax_reference(wa.args());
  ax_reference(wb.args());
  ax_reference(wc.args());
  for (std::size_t p = 0; p < wc.w.size(); ++p) {
    const double expected = alpha * wa.w[p] + beta * wb.w[p];
    ASSERT_NEAR(wc.w[p], expected, 1e-9 * std::max(1.0, std::abs(expected)));
  }
}

TEST_P(AxProperties, OperatorIsSymmetric) {
  // u . A v == v . A u (element-local operator is symmetric).
  const int degree = GetParam();
  Workload wu(degree, sem::Deformation::kTwist, 2, 4);
  Workload wv(degree, sem::Deformation::kTwist, 2, 5);
  ax_reference(wu.args());  // wu.w = A u
  ax_reference(wv.args());  // wv.w = A v
  double uav = 0.0, vau = 0.0;
  for (std::size_t p = 0; p < wu.u.size(); ++p) {
    uav += wu.u[p] * wv.w[p];
    vau += wv.u[p] * wu.w[p];
  }
  EXPECT_NEAR(uav, vau, 1e-8 * std::max(1.0, std::abs(uav)));
}

TEST_P(AxProperties, QuadraticFormNonNegative) {
  Workload wl(GetParam(), sem::Deformation::kSine, 2, 6);
  ax_reference(wl.args());
  double quad = 0.0;
  for (std::size_t p = 0; p < wl.u.size(); ++p) {
    quad += wl.u[p] * wl.w[p];
  }
  EXPECT_GE(quad, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Degrees, AxProperties, ::testing::Values(1, 3, 5, 7));

TEST(Ax, LaplacianOfLinearFieldVanishesInside) {
  // For u = x the continuous Laplacian is zero; the local operator applied
  // and assembled over a uniform mesh must vanish at interior DOFs.  Here
  // we check the single-element version against the dense operator instead:
  // A x-coordinate-field on an affine element gives surface terms only.
  Workload wl(4, sem::Deformation::kNone, 1);
  for (std::size_t p = 0; p < wl.u.size(); ++p) {
    wl.u[p] = wl.mesh->x()[p];
  }
  ax_reference(wl.args());
  // Interior DOFs of the element: Laplacian contribution zero.
  const int n1d = wl.ref.n1d();
  for (int k = 1; k < n1d - 1; ++k) {
    for (int j = 1; j < n1d - 1; ++j) {
      for (int i = 1; i < n1d - 1; ++i) {
        EXPECT_NEAR(wl.w[wl.ref.index(i, j, k)], 0.0, 1e-10);
      }
    }
  }
}

TEST(Ax, SingleElementHelperMatchesBatch) {
  Workload wl(3);
  ax_reference(wl.args());
  const std::size_t ppe = wl.ref.points_per_element();
  std::vector<double> we(ppe, 0.0);
  for (std::size_t e = 0; e < wl.gf.n_elements; ++e) {
    ax_single_element(wl.ref, wl.gf, e,
                      std::span<const double>(wl.u.data() + e * ppe, ppe),
                      std::span<double>(we.data(), ppe));
    for (std::size_t p = 0; p < ppe; ++p) {
      ASSERT_DOUBLE_EQ(we[p], wl.w[e * ppe + p]);
    }
  }
}

TEST(Ax, ValidatesArgumentSizes) {
  Workload wl(2);
  AxArgs bad = wl.args();
  bad.n_elements += 1;  // u/w no longer cover the claimed elements
  EXPECT_THROW(ax_reference(bad), std::invalid_argument);
  AxArgs bad2 = wl.args();
  bad2.n1d = 5;
  EXPECT_THROW(ax_reference(bad2), std::invalid_argument);
}

TEST(Ax, FlopCountingMatchesPaper) {
  // C(N) = (6(N+1)+6, 6(N+1)+9), I(N) = (12(N+1)+15)/64 (Section IV).
  EXPECT_EQ(ax_adds_per_dof(8), 54);
  EXPECT_EQ(ax_mults_per_dof(8), 57);
  EXPECT_EQ(ax_flops_per_dof(8), 111);
  EXPECT_EQ(ax_flops_per_dof(12), 159);
  EXPECT_EQ(ax_flops_per_dof(16), 207);
  EXPECT_EQ(ax_bytes_per_dof(), 64);
  EXPECT_NEAR(ax_intensity(8), 111.0 / 64.0, 1e-15);
  EXPECT_EQ(ax_flops(8, 4096), 111LL * 512 * 4096);
}

}  // namespace
}  // namespace semfpga::kernels
