#include "sem/geometry.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace semfpga::sem {
namespace {

TEST(Geometry, AffineBoxFactorsAreDiagonalAndExact) {
  // On an axis-aligned box of element size (hx, hy, hz):
  //   J = diag(hx/2, hy/2, hz/2), det J = hx hy hz / 8,
  //   G_rr = w * det * (2/hx)^2, cross terms vanish.
  BoxMeshSpec spec;
  spec.degree = 4;
  spec.nelx = 2;
  spec.nely = 1;
  spec.nelz = 3;
  spec.y1 = 2.0;  // stretch y so hy differs
  const ReferenceElement ref(spec.degree);
  const Mesh mesh(spec, ref);
  const GeomFactors gf = geometric_factors(mesh, ref);

  const double hx = 0.5, hy = 2.0, hz = 1.0 / 3.0;
  const double det = hx * hy * hz / 8.0;
  const int n1d = ref.n1d();
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    for (int k = 0; k < n1d; ++k) {
      for (int j = 0; j < n1d; ++j) {
        for (int i = 0; i < n1d; ++i) {
          const std::size_t ijk = ref.index(i, j, k);
          const double w = ref.weight3d(i, j, k);
          EXPECT_NEAR(gf.at(e, ijk, kGrr), w * det * 4.0 / (hx * hx), 1e-11);
          EXPECT_NEAR(gf.at(e, ijk, kGss), w * det * 4.0 / (hy * hy), 1e-11);
          EXPECT_NEAR(gf.at(e, ijk, kGtt), w * det * 4.0 / (hz * hz), 1e-11);
          EXPECT_NEAR(gf.at(e, ijk, kGrs), 0.0, 1e-12);
          EXPECT_NEAR(gf.at(e, ijk, kGrt), 0.0, 1e-12);
          EXPECT_NEAR(gf.at(e, ijk, kGst), 0.0, 1e-12);
          EXPECT_NEAR(gf.mass[e * gf.ppe + ijk] / w, det, 1e-12);
        }
      }
    }
  }
}

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, Deformation>> {};

TEST_P(GeometrySweep, MassSumsToDomainVolume) {
  // sum of w |J| over all quadrature nodes = volume of the box (all
  // deformations are volume-preserving on the boundary-fixed box only up to
  // interior rearrangement -- total volume is invariant).
  const auto [degree, def] = GetParam();
  BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = spec.nely = spec.nelz = 2;
  spec.deformation = def;
  spec.deformation_amplitude = 0.03;
  const ReferenceElement ref(degree);
  const Mesh mesh(spec, ref);
  const GeomFactors gf = geometric_factors(mesh, ref);
  const double volume = std::accumulate(gf.mass.begin(), gf.mass.end(), 0.0);
  // The sine warp is not exactly volume preserving pointwise, but the map
  // is a diffeomorphism of the unit cube onto itself: total volume is 1.
  // Quadrature integrates the (smooth) Jacobian to spectral accuracy.
  const double tol = degree >= 5 ? 1e-8 : (def == Deformation::kNone ? 1e-12 : 5e-3);
  EXPECT_NEAR(volume, 1.0, tol);
}

TEST_P(GeometrySweep, TensorIsPositiveDefinitePointwise) {
  const auto [degree, def] = GetParam();
  BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = spec.nely = spec.nelz = 2;
  spec.deformation = def;
  spec.deformation_amplitude = 0.03;
  const ReferenceElement ref(degree);
  const Mesh mesh(spec, ref);
  const GeomFactors gf = geometric_factors(mesh, ref);

  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    for (std::size_t ijk = 0; ijk < gf.ppe; ++ijk) {
      const auto g = [&](int c) { return gf.at(e, ijk, c); };
      // Sylvester's criterion on the symmetric 3x3 tensor.
      const double m1 = g(kGrr);
      const double m2 = g(kGrr) * g(kGss) - g(kGrs) * g(kGrs);
      const double m3 = g(kGrr) * (g(kGss) * g(kGtt) - g(kGst) * g(kGst)) -
                        g(kGrs) * (g(kGrs) * g(kGtt) - g(kGst) * g(kGrt)) +
                        g(kGrt) * (g(kGrs) * g(kGst) - g(kGss) * g(kGrt));
      ASSERT_GT(m1, 0.0);
      ASSERT_GT(m2, 0.0);
      ASSERT_GT(m3, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndDeformations, GeometrySweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7),
                       ::testing::Values(Deformation::kNone, Deformation::kSine,
                                         Deformation::kTwist)));

TEST(Geometry, UniformScalingLaw) {
  // Scaling the domain by s scales G entries by s (in 3D: det ~ s^3,
  // J^-1 J^-T ~ s^-2).
  const int degree = 3;
  BoxMeshSpec unit;
  unit.degree = degree;
  BoxMeshSpec scaled = unit;
  const double s = 2.5;
  scaled.x1 = s;
  scaled.y1 = s;
  scaled.z1 = s;
  const ReferenceElement ref(degree);
  const GeomFactors g1 = geometric_factors(Mesh(unit, ref), ref);
  const GeomFactors g2 = geometric_factors(Mesh(scaled, ref), ref);
  for (std::size_t e = 0; e < g1.n_elements; ++e) {
    for (std::size_t ijk = 0; ijk < g1.ppe; ++ijk) {
      for (int c = 0; c < kGeomComponents; ++c) {
        const double g = g1.at(e, ijk, c);
        EXPECT_NEAR(g2.at(e, ijk, c), s * g, 1e-10 * std::max(1.0, std::abs(g)));
      }
    }
  }
}

TEST(Geometry, TangledMeshIsRejected) {
  BoxMeshSpec spec;
  spec.degree = 5;
  spec.deformation = Deformation::kSine;
  spec.deformation_amplitude = 0.9;  // large enough to fold elements
  const ReferenceElement ref(spec.degree);
  EXPECT_THROW(
      {
        const Mesh mesh(spec, ref);
        (void)geometric_factors(mesh, ref);
      },
      std::invalid_argument);
}

TEST(Geometry, TangledElementMessageAtEveryOrderPath) {
  // Degree 5 takes a compile-time-order body, degree 17 (n1d 18) the
  // runtime-order one; both must reject the folded element with the same
  // check and message.
  const std::string want =
      "check `det > 0.0` failed: element Jacobian must be positive (mesh is tangled or "
      "deformation amplitude too large)";
  for (const int degree : {5, 17}) {
    BoxMeshSpec spec;
    spec.degree = degree;
    spec.nelx = spec.nely = spec.nelz = 1;
    spec.deformation = Deformation::kSine;
    spec.deformation_amplitude = 0.9;
    const ReferenceElement ref(degree);
    const Mesh mesh(spec, ref);
    try {
      (void)geometric_factors(mesh, ref);
      FAIL() << "degree " << degree << ": tangled mesh accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      ASSERT_GE(what.size(), want.size()) << what;
      EXPECT_EQ(what.substr(what.size() - want.size()), want) << "degree " << degree;
    }
  }
}

}  // namespace
}  // namespace semfpga::sem
