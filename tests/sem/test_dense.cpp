#include "sem/dense.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace semfpga::sem {
namespace {

struct DenseCase {
  int degree;
  Deformation deformation;
};

class DenseSweep : public ::testing::TestWithParam<DenseCase> {
 protected:
  DenseSweep() : ref_(GetParam().degree) {
    BoxMeshSpec spec;
    spec.degree = GetParam().degree;
    spec.nelx = spec.nely = spec.nelz = 2;
    spec.deformation = GetParam().deformation;
    spec.deformation_amplitude = 0.04;
    mesh_ = std::make_unique<Mesh>(spec, ref_);
    gf_ = geometric_factors(*mesh_, ref_);
  }
  ReferenceElement ref_;
  std::unique_ptr<Mesh> mesh_;
  GeomFactors gf_;
};

TEST_P(DenseSweep, LocalMatrixIsSymmetric) {
  const auto a = assemble_local_matrix(ref_, gf_, 0);
  const std::size_t n = ref_.points_per_element();
  double scale = 0.0;
  for (double v : a) {
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_NEAR(a[i * n + j], a[j * n + i], 1e-12 * scale);
    }
  }
}

TEST_P(DenseSweep, ConstantsAreInTheNullSpace) {
  const auto a = assemble_local_matrix(ref_, gf_, 1);
  const std::size_t n = ref_.points_per_element();
  double scale = 0.0;
  for (double v : a) {
    scale = std::max(scale, std::abs(v));
  }
  const auto y = dense_apply(a, std::vector<double>(n, 1.0));
  for (double v : y) {
    EXPECT_NEAR(v, 0.0, 1e-11 * scale);
  }
}

TEST_P(DenseSweep, QuadraticFormIsNonNegative) {
  const auto a = assemble_local_matrix(ref_, gf_, 2);
  const std::size_t n = ref_.points_per_element();
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> x(n);
    for (double& v : x) {
      v = rng.uniform(-1.0, 1.0);
    }
    const auto ax = dense_apply(a, x);
    double quad = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      quad += x[i] * ax[i];
    }
    EXPECT_GE(quad, -1e-10);
  }
}

TEST_P(DenseSweep, DiagonalMatchesAnalyticFormula) {
  const std::size_t n = ref_.points_per_element();
  std::vector<double> diag(gf_.n_elements * n);
  local_diagonals(ref_, gf_, 0.0, diag);
  for (std::size_t e = 0; e < 3; ++e) {
    const auto a = assemble_local_matrix(ref_, gf_, e);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(diag[e * n + i], a[i * n + i],
                  1e-10 * std::max(1.0, std::abs(a[i * n + i])))
          << "element " << e << " dof " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DenseSweep,
    ::testing::Values(DenseCase{1, Deformation::kNone}, DenseCase{2, Deformation::kNone},
                      DenseCase{3, Deformation::kNone}, DenseCase{2, Deformation::kSine},
                      DenseCase{3, Deformation::kSine}, DenseCase{3, Deformation::kTwist},
                      DenseCase{4, Deformation::kSine}));

TEST(Dense, RejectsOutOfRangeElement) {
  const ReferenceElement ref(2);
  BoxMeshSpec spec;
  spec.degree = 2;
  spec.nelx = spec.nely = spec.nelz = 1;
  const Mesh mesh(spec, ref);
  const GeomFactors gf = geometric_factors(mesh, ref);
  EXPECT_THROW(assemble_local_matrix(ref, gf, 1), std::invalid_argument);
  std::vector<double> short_view(gf.ppe - 1);
  EXPECT_THROW(local_diagonals(ref, gf, 0.0, short_view), std::invalid_argument);
}

}  // namespace
}  // namespace semfpga::sem
