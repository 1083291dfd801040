/// Parity contract of the batched execution engine (kernels/ax_dispatch.hpp):
/// every variant, at every thread count, on every paper degree and deformed
/// mesh, agrees with ax_reference to 1e-12 relative error — and each
/// variant is bitwise identical to itself across thread counts.

#include <cmath>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/ax_dispatch.hpp"
#include "sem/geometry.hpp"

namespace semfpga::kernels {
namespace {

/// Deformed-mesh operands plus reference output for one degree.
struct Workload {
  Workload(int degree, sem::Deformation def) : ref(degree) {
    sem::BoxMeshSpec spec;
    spec.degree = degree;
    spec.nelx = spec.nely = spec.nelz = 2;
    spec.deformation = def;
    spec.deformation_amplitude = 0.04;
    mesh = std::make_unique<sem::Mesh>(spec, ref);
    gf = sem::geometric_factors(*mesh, ref);
    const std::size_t n = mesh->n_local();
    u.resize(n);
    w.assign(n, 0.0);
    w_ref.assign(n, 0.0);
    SplitMix64 rng(31 + static_cast<std::uint64_t>(degree));
    for (double& v : u) {
      v = rng.uniform(-1.0, 1.0);
    }
    AxArgs a = args();
    a.w = w_ref;
    ax_reference(a);
    scale = 0.0;
    for (const double v : w_ref) {
      scale = std::max(scale, std::abs(v));
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

  void expect_matches_reference(const char* label) const {
    for (std::size_t p = 0; p < w.size(); ++p) {
      ASSERT_NEAR(w[p], w_ref[p], 1e-12 * scale) << label << " dof " << p;
    }
  }

  sem::ReferenceElement ref;
  std::unique_ptr<sem::Mesh> mesh;
  sem::GeomFactors gf;
  std::vector<double> u, w, w_ref;
  double scale = 0.0;
};

using EngineCase = std::tuple<int, AxVariant, sem::Deformation>;

class EngineParity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineParity, MatchesReferenceAtEveryThreadCount) {
  const auto [degree, variant, deformation] = GetParam();
  Workload wl(degree, deformation);

  for (const int threads : {1, 2, 4}) {
    std::fill(wl.w.begin(), wl.w.end(), 0.0);
    ax_run(variant, wl.args(), AxExecPolicy{threads});
    wl.expect_matches_reference(ax_variant_name(variant));
  }
}

TEST_P(EngineParity, ThreadCountDoesNotChangeBits) {
  const auto [degree, variant, deformation] = GetParam();
  Workload wl(degree, deformation);

  ax_run(variant, wl.args(), AxExecPolicy{1});
  std::vector<double> serial = wl.w;
  std::fill(wl.w.begin(), wl.w.end(), 0.0);
  ax_run(variant, wl.args(), AxExecPolicy{4});
  for (std::size_t p = 0; p < wl.w.size(); ++p) {
    ASSERT_EQ(wl.w[p], serial[p])
        << ax_variant_name(variant) << " dof " << p << ": re-threading changed bits";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees3To9, EngineParity,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7, 8, 9),
                       ::testing::ValuesIn(kAllAxVariants),
                       ::testing::Values(sem::Deformation::kSine,
                                         sem::Deformation::kTwist)),
    [](const ::testing::TestParamInfo<EngineCase>& tpi) {
      return std::string("N") + std::to_string(std::get<0>(tpi.param)) + "_" +
             ax_variant_name(std::get<1>(tpi.param)) + "_" +
             (std::get<2>(tpi.param) == sem::Deformation::kSine ? "sine" : "twist");
    });

TEST(AxFixedN1d, DirectTemplateCallMatchesReference) {
  Workload wl(5, sem::Deformation::kSine);  // degree 5 -> n1d 6
  ax_fixed_n1d<6>(wl.args(), 0, wl.gf.n_elements);
  wl.expect_matches_reference("ax_fixed_n1d<6>");
}

TEST(AxFixedN1d, PartialRangeTouchesOnlyThoseElements) {
  Workload wl(4, sem::Deformation::kTwist);
  const std::size_t ppe = wl.ref.points_per_element();
  std::fill(wl.w.begin(), wl.w.end(), -7.0);
  ax_fixed_n1d<5>(wl.args(), 1, 3);
  for (std::size_t p = 0; p < ppe; ++p) {
    EXPECT_EQ(wl.w[p], -7.0) << "element 0 was written";
  }
  for (std::size_t p = ppe; p < 3 * ppe; ++p) {
    ASSERT_NEAR(wl.w[p], wl.w_ref[p], 1e-12 * wl.scale) << "dof " << p;
  }
  for (std::size_t p = 3 * ppe; p < wl.w.size(); ++p) {
    ASSERT_EQ(wl.w[p], -7.0) << "element beyond the range was written";
  }
}

TEST(AxFixedN1d, OrdersOutsideTemplateRangeFallBackToReference) {
  // degree 17 -> n1d 18 > kFixedMaxN1d: the fixed dispatch must still be
  // correct (runtime-order body), and bitwise equal to the reference.
  ASSERT_GT(18, kFixedMaxN1d);
  Workload wl(17, sem::Deformation::kSine);
  ax_run(AxVariant::kFixed, wl.args(), AxExecPolicy{1});
  for (std::size_t p = 0; p < wl.w.size(); ++p) {
    ASSERT_EQ(wl.w[p], wl.w_ref[p]) << "dof " << p;
  }
}

TEST(AxVariantNames, RoundTrip) {
  for (const AxVariant v : kAllAxVariants) {
    EXPECT_EQ(parse_ax_variant(ax_variant_name(v)), v);
  }
  EXPECT_THROW((void)parse_ax_variant("turbo"), std::invalid_argument);
}

}  // namespace
}  // namespace semfpga::kernels
