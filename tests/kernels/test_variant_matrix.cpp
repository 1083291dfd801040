/// Cross-variant equivalence matrix: every CPU kernel variant must agree
/// on every paper degree over deformed meshes and multiple random inputs.
/// This is the library's contract: any variant is substitutable inside
/// the solver.

#include <cmath>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/ax.hpp"
#include "sem/geometry.hpp"

namespace semfpga::kernels {
namespace {

enum class Variant { kFixed, kMxm, kOmp };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kFixed: return "fixed";
    case Variant::kMxm: return "mxm";
    case Variant::kOmp: return "omp";
  }
  return "?";
}

using MatrixCase = std::tuple<int, Variant, sem::Deformation>;

class VariantMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(VariantMatrix, AgreesWithReference) {
  const auto [degree, variant, deformation] = GetParam();

  sem::ReferenceElement ref(degree);
  sem::BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = spec.nely = spec.nelz = 2;
  spec.deformation = deformation;
  spec.deformation_amplitude = 0.04;
  const sem::Mesh mesh(spec, ref);
  const sem::GeomFactors gf = sem::geometric_factors(mesh, ref);

  const std::size_t n = mesh.n_local();
  std::vector<double> u(n), w_ref(n, 0.0), w_var(n, 0.0);
  SplitMix64 rng(1000 + static_cast<std::uint64_t>(degree));
  for (double& v : u) {
    v = rng.uniform(-1.0, 1.0);
  }

  AxArgs args;
  args.u = u;
  args.g = std::span<const double>(gf.g.data(), gf.g.size());
  args.dx = std::span<const double>(ref.deriv().d.data(), ref.deriv().d.size());
  args.dxt = std::span<const double>(ref.deriv().dt.data(), ref.deriv().dt.size());
  args.n1d = ref.n1d();
  args.n_elements = gf.n_elements;

  args.w = w_ref;
  ax_reference(args);
  args.w = w_var;

  switch (variant) {
    case Variant::kFixed:
      ax_fixed(args);
      break;
    case Variant::kMxm:
      ax_mxm(args);
      break;
    case Variant::kOmp:
      ax_omp(args);
      break;
  }

  double scale = 0.0;
  for (double v : w_ref) {
    scale = std::max(scale, std::abs(v));
  }
  // mxm and the i-vectorised fixed kernel reorder the contractions (that is
  // the optimization); omp is order-identical to the reference.
  const double tol =
      variant == Variant::kMxm || variant == Variant::kFixed ? 1e-12 * scale : 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    if (tol == 0.0) {
      ASSERT_DOUBLE_EQ(w_var[p], w_ref[p]) << variant_name(variant) << " dof " << p;
    } else {
      ASSERT_NEAR(w_var[p], w_ref[p], tol) << variant_name(variant) << " dof " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, VariantMatrix,
    ::testing::Combine(::testing::Values(1, 3, 5, 7, 9, 11, 13, 15),
                       ::testing::Values(Variant::kFixed, Variant::kMxm, Variant::kOmp),
                       ::testing::Values(sem::Deformation::kSine,
                                         sem::Deformation::kTwist)),
    [](const ::testing::TestParamInfo<MatrixCase>& tpi) {
      std::string name = "N";
      name += std::to_string(std::get<0>(tpi.param));
      name += "_";
      name += variant_name(std::get<1>(tpi.param));
      name += "_";
      name += std::get<2>(tpi.param) == sem::Deformation::kSine ? "sine" : "twist";
      return name;
    });

}  // namespace
}  // namespace semfpga::kernels
