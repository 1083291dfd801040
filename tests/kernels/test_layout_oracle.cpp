/// Frozen-copy oracle for the per-element structure-of-arrays layout of the
/// geometric factors (sem::geom_index).
///
/// The functions in the `frozen` namespace are verbatim copies of the code
/// that stored G interleaved, g[(e*ppe + ijk)*6 + c]: the per-node
/// geometric_factors, the Listing-1 reference body, the i-vectorised fixed
/// body and the per-element analytic diagonal.  The layout change promised
/// to move every value without changing a single bit, so each test compares
/// the live code against its frozen twin with memcmp, reading the live
/// factors through GeomFactors::at().  Do not edit the frozen copies: they
/// are the specification.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "kernels/ax.hpp"
#include "sem/dense.hpp"
#include "sem/geometry.hpp"

namespace semfpga::kernels {
namespace {

namespace frozen {

using sem::kGeomComponents;
using sem::kGrr;
using sem::kGrs;
using sem::kGrt;
using sem::kGss;
using sem::kGst;
using sem::kGtt;

/// Interleaved geometric factors, g[(e*ppe + ijk)*6 + c].
std::vector<double> geometric_factors(const sem::Mesh& mesh,
                                      const sem::ReferenceElement& ref) {
  const int n1d = mesh.n1d();
  const std::size_t ppe = mesh.points_per_element();
  const std::size_t ne = mesh.n_elements();
  std::vector<double> g(ne * ppe * kGeomComponents, 0.0);

  const auto& d = ref.deriv().d;
  const auto& xs = mesh.x();
  const auto& ys = mesh.y();
  const auto& zs = mesh.z();

  // Derivative of a nodal coordinate field along one tensor direction.
  auto dtensor = [&](const aligned_vector<double>& f, std::size_t base, int i, int j,
                     int k, int dir) {
    double acc = 0.0;
    for (int l = 0; l < n1d; ++l) {
      double dv = 0.0;
      std::size_t idx = 0;
      switch (dir) {
        case 0:
          dv = d[static_cast<std::size_t>(i) * n1d + l];
          idx = ref.index(l, j, k);
          break;
        case 1:
          dv = d[static_cast<std::size_t>(j) * n1d + l];
          idx = ref.index(i, l, k);
          break;
        default:
          dv = d[static_cast<std::size_t>(k) * n1d + l];
          idx = ref.index(i, j, l);
          break;
      }
      acc += dv * f[base + idx];
    }
    return acc;
  };

  for (std::size_t e = 0; e < ne; ++e) {
    const std::size_t base = e * ppe;
    for (int k = 0; k < n1d; ++k) {
      for (int j = 0; j < n1d; ++j) {
        for (int i = 0; i < n1d; ++i) {
          const std::size_t ijk = ref.index(i, j, k);

          // Jacobian J[a][b] = d x_a / d xi_b at this node.
          double jm[3][3];
          for (int b = 0; b < 3; ++b) {
            jm[0][b] = dtensor(xs, base, i, j, k, b);
            jm[1][b] = dtensor(ys, base, i, j, k, b);
            jm[2][b] = dtensor(zs, base, i, j, k, b);
          }

          const double det = jm[0][0] * (jm[1][1] * jm[2][2] - jm[1][2] * jm[2][1]) -
                             jm[0][1] * (jm[1][0] * jm[2][2] - jm[1][2] * jm[2][0]) +
                             jm[0][2] * (jm[1][0] * jm[2][1] - jm[1][1] * jm[2][0]);
          SEMFPGA_CHECK(det > 0.0,
                        "element Jacobian must be positive (mesh is tangled or "
                        "deformation amplitude too large)");

          // Inverse Jacobian (d xi / d x) via the adjugate.
          double inv[3][3];
          inv[0][0] = (jm[1][1] * jm[2][2] - jm[1][2] * jm[2][1]) / det;
          inv[0][1] = (jm[0][2] * jm[2][1] - jm[0][1] * jm[2][2]) / det;
          inv[0][2] = (jm[0][1] * jm[1][2] - jm[0][2] * jm[1][1]) / det;
          inv[1][0] = (jm[1][2] * jm[2][0] - jm[1][0] * jm[2][2]) / det;
          inv[1][1] = (jm[0][0] * jm[2][2] - jm[0][2] * jm[2][0]) / det;
          inv[1][2] = (jm[0][2] * jm[1][0] - jm[0][0] * jm[1][2]) / det;
          inv[2][0] = (jm[1][0] * jm[2][1] - jm[1][1] * jm[2][0]) / det;
          inv[2][1] = (jm[0][1] * jm[2][0] - jm[0][0] * jm[2][1]) / det;
          inv[2][2] = (jm[0][0] * jm[1][1] - jm[0][1] * jm[1][0]) / det;

          const double w = ref.weight3d(i, j, k);
          const double scale = w * det;

          // G_ab = scale * sum_c inv[a][c] * inv[b][c]  (a,b index r,s,t).
          auto gab = [&inv, scale](int a, int b) {
            return scale * (inv[a][0] * inv[b][0] + inv[a][1] * inv[b][1] +
                            inv[a][2] * inv[b][2]);
          };

          double* gp = &g[(base + ijk) * kGeomComponents];
          gp[kGrr] = gab(0, 0);
          gp[kGrs] = gab(0, 1);
          gp[kGrt] = gab(0, 2);
          gp[kGss] = gab(1, 1);
          gp[kGst] = gab(1, 2);
          gp[kGtt] = gab(2, 2);
        }
      }
    }
  }
  return g;
}

/// Listing-1 scalar element body over interleaved G.
void ax_element_body(const double* u, double* w, const double* g, const double* dx,
                     const double* dxt, int nx, double* shur, double* shus,
                     double* shut) {
  const std::size_t n = static_cast<std::size_t>(nx);
  for (int k = 0; k < nx; ++k) {
    for (int j = 0; j < nx; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t ij = static_cast<std::size_t>(i) + n * j;
        const std::size_t ijk = ij + n * n * k;
        double rtmp = 0.0;
        double stmp = 0.0;
        double ttmp = 0.0;
        for (int l = 0; l < nx; ++l) {
          rtmp += dx[static_cast<std::size_t>(i) * n + l] *
                  u[static_cast<std::size_t>(l) + n * j + n * n * k];
          stmp += dx[static_cast<std::size_t>(j) * n + l] *
                  u[static_cast<std::size_t>(i) + n * l + n * n * k];
          ttmp += dx[static_cast<std::size_t>(k) * n + l] *
                  u[static_cast<std::size_t>(i) + n * j + n * n * l];
        }
        const double* gp = g + ijk * kGeomComponents;
        shur[ijk] = gp[kGrr] * rtmp + gp[kGrs] * stmp + gp[kGrt] * ttmp;
        shus[ijk] = gp[kGrs] * rtmp + gp[kGss] * stmp + gp[kGst] * ttmp;
        shut[ijk] = gp[kGrt] * rtmp + gp[kGst] * stmp + gp[kGtt] * ttmp;
      }
    }
  }
  for (int k = 0; k < nx; ++k) {
    for (int j = 0; j < nx; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t ijk = static_cast<std::size_t>(i) + n * j + n * n * k;
        double acc = 0.0;
        for (int l = 0; l < nx; ++l) {
          acc += dxt[static_cast<std::size_t>(i) * n + l] *
                 shur[static_cast<std::size_t>(l) + n * j + n * n * k];
          acc += dxt[static_cast<std::size_t>(j) * n + l] *
                 shus[static_cast<std::size_t>(i) + n * l + n * n * k];
          acc += dxt[static_cast<std::size_t>(k) * n + l] *
                 shut[static_cast<std::size_t>(i) + n * j + n * n * l];
        }
        w[ijk] = acc;
      }
    }
  }
}

/// Row-by-row i-vectorised fixed-size element body over interleaved G.
template <int NX>
void ax_element_fixed(const double* __restrict u, double* __restrict w,
                      const double* __restrict g, const double* __restrict dx,
                      const double* __restrict dxt, double* __restrict shur,
                      double* __restrict shus, double* __restrict shut) {
  constexpr std::size_t n = NX;
  constexpr std::size_t n2 = n * n;
  for (int k = 0; k < NX; ++k) {
    for (int j = 0; j < NX; ++j) {
      const std::size_t row = n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(k);
      double rtmp[NX] = {};
      double stmp[NX] = {};
      double ttmp[NX] = {};
      for (int l = 0; l < NX; ++l) {
        const double u_l = u[static_cast<std::size_t>(l) + row];
        const double* dxt_l = dxt + static_cast<std::size_t>(l) * n;
        const double d_jl = dx[static_cast<std::size_t>(j) * n + l];
        const double d_kl = dx[static_cast<std::size_t>(k) * n + l];
        const double* u_s = u + n * static_cast<std::size_t>(l) + n2 * static_cast<std::size_t>(k);
        const double* u_t = u + n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(l);
#pragma omp simd
        for (int i = 0; i < NX; ++i) {
          rtmp[i] += u_l * dxt_l[i];
          stmp[i] += d_jl * u_s[i];
          ttmp[i] += d_kl * u_t[i];
        }
      }
#pragma omp simd
      for (int i = 0; i < NX; ++i) {
        const std::size_t ijk = static_cast<std::size_t>(i) + row;
        const double* gp = g + ijk * kGeomComponents;
        shur[ijk] = gp[kGrr] * rtmp[i] + gp[kGrs] * stmp[i] + gp[kGrt] * ttmp[i];
        shus[ijk] = gp[kGrs] * rtmp[i] + gp[kGss] * stmp[i] + gp[kGst] * ttmp[i];
        shut[ijk] = gp[kGrt] * rtmp[i] + gp[kGst] * stmp[i] + gp[kGtt] * ttmp[i];
      }
    }
  }
  for (int k = 0; k < NX; ++k) {
    for (int j = 0; j < NX; ++j) {
      const std::size_t row = n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(k);
      double acc[NX] = {};
      for (int l = 0; l < NX; ++l) {
        const double r_l = shur[static_cast<std::size_t>(l) + row];
        const double* dx_l = dx + static_cast<std::size_t>(l) * n;
        const double dt_jl = dxt[static_cast<std::size_t>(j) * n + l];
        const double dt_kl = dxt[static_cast<std::size_t>(k) * n + l];
        const double* s_row = shus + n * static_cast<std::size_t>(l) + n2 * static_cast<std::size_t>(k);
        const double* t_row = shut + n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(l);
#pragma omp simd
        for (int i = 0; i < NX; ++i) {
          acc[i] += r_l * dx_l[i] + dt_jl * s_row[i] + dt_kl * t_row[i];
        }
      }
      for (int i = 0; i < NX; ++i) {
        w[static_cast<std::size_t>(i) + row] = acc[i];
      }
    }
  }
}

/// Analytic diagonal of one element's local Poisson matrix, interleaved G.
std::vector<double> local_diagonal(const sem::ReferenceElement& ref,
                                   const std::vector<double>& g, std::size_t element) {
  const int n1d = ref.n1d();
  const std::size_t ppe = ref.points_per_element();
  const auto& d = ref.deriv().d;
  const auto at = [&](std::size_t ijk, int c) {
    return g[(element * ppe + ijk) * kGeomComponents + static_cast<std::size_t>(c)];
  };

  std::vector<double> diag(ppe, 0.0);
  for (int k = 0; k < n1d; ++k) {
    for (int j = 0; j < n1d; ++j) {
      for (int i = 0; i < n1d; ++i) {
        const std::size_t m = ref.index(i, j, k);
        double acc = 0.0;
        for (int l = 0; l < n1d; ++l) {
          const double dli = d[static_cast<std::size_t>(l) * n1d + i];
          const double dlj = d[static_cast<std::size_t>(l) * n1d + j];
          const double dlk = d[static_cast<std::size_t>(l) * n1d + k];
          acc += at(ref.index(l, j, k), kGrr) * dli * dli;
          acc += at(ref.index(i, l, k), kGss) * dlj * dlj;
          acc += at(ref.index(i, j, l), kGtt) * dlk * dlk;
        }
        const double dii = d[static_cast<std::size_t>(i) * n1d + i];
        const double djj = d[static_cast<std::size_t>(j) * n1d + j];
        const double dkk = d[static_cast<std::size_t>(k) * n1d + k];
        acc += 2.0 * at(m, kGrs) * dii * djj;
        acc += 2.0 * at(m, kGrt) * dii * dkk;
        acc += 2.0 * at(m, kGst) * djj * dkk;
        diag[m] = acc;
      }
    }
  }
  return diag;
}

}  // namespace frozen

/// The live factors re-read through at() into the frozen interleaved order.
std::vector<double> interleave(const sem::GeomFactors& gf) {
  std::vector<double> out(gf.g.size());
  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    for (std::size_t ijk = 0; ijk < gf.ppe; ++ijk) {
      for (int c = 0; c < sem::kGeomComponents; ++c) {
        out[(e * gf.ppe + ijk) * sem::kGeomComponents + static_cast<std::size_t>(c)] =
            gf.at(e, ijk, c);
      }
    }
  }
  return out;
}

bool bitwise_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

sem::Mesh make_mesh(const sem::ReferenceElement& ref, sem::Deformation def) {
  sem::BoxMeshSpec spec;
  spec.degree = ref.degree();
  spec.nelx = 2;
  spec.nely = 1;
  spec.nelz = 2;
  spec.deformation = def;
  spec.deformation_amplitude = 0.04;
  return sem::Mesh(spec, ref);
}

const char* deformation_name(sem::Deformation def) {
  switch (def) {
    case sem::Deformation::kNone: return "none";
    case sem::Deformation::kSine: return "sine";
    case sem::Deformation::kTwist: return "twist";
  }
  return "?";
}

using GeomCase = std::tuple<int, sem::Deformation>;

class GeometryOracle : public ::testing::TestWithParam<GeomCase> {};

TEST_P(GeometryOracle, FactorsEqualFrozenInterleavedBuild) {
  const auto [degree, def] = GetParam();
  const sem::ReferenceElement ref(degree);
  const sem::Mesh mesh = make_mesh(ref, def);
  const sem::GeomFactors gf = sem::geometric_factors(mesh, ref);
  const std::vector<double> expected = frozen::geometric_factors(mesh, ref);
  ASSERT_EQ(gf.g.size(), expected.size());
  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    for (std::size_t ijk = 0; ijk < gf.ppe; ++ijk) {
      for (int c = 0; c < sem::kGeomComponents; ++c) {
        const double live = gf.at(e, ijk, c);
        ASSERT_TRUE(bitwise_equal(
            &live, &expected[(e * gf.ppe + ijk) * sem::kGeomComponents + static_cast<std::size_t>(c)],
            1))
            << "element " << e << " node " << ijk << " component " << c;
      }
    }
  }
}

TEST_P(GeometryOracle, DiagonalEqualsFrozenPerElementBuild) {
  const auto [degree, def] = GetParam();
  const sem::ReferenceElement ref(degree);
  const sem::Mesh mesh = make_mesh(ref, def);
  const sem::GeomFactors gf = sem::geometric_factors(mesh, ref);
  const std::vector<double> g = frozen::geometric_factors(mesh, ref);
  const std::size_t ppe = gf.ppe;
  const double lambda = 2.5;

  // The historical builders: per-element diagonals, then lambda * mass in a
  // separate pass (skipped at lambda == 0).
  std::vector<double> expected_poisson(gf.n_elements * ppe);
  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    const auto d = frozen::local_diagonal(ref, g, e);
    std::copy(d.begin(), d.end(), expected_poisson.begin() + static_cast<long>(e * ppe));
  }
  std::vector<double> expected_helmholtz = expected_poisson;
  for (std::size_t p = 0; p < expected_helmholtz.size(); ++p) {
    expected_helmholtz[p] += lambda * gf.mass[p];
  }

  std::vector<double> poisson(expected_poisson.size());
  std::vector<double> helmholtz(expected_poisson.size());
  sem::local_diagonals(ref, gf, 0.0, poisson);
  sem::local_diagonals(ref, gf, lambda, helmholtz);
  EXPECT_TRUE(bitwise_equal(poisson.data(), expected_poisson.data(), poisson.size()));
  EXPECT_TRUE(bitwise_equal(helmholtz.data(), expected_helmholtz.data(), helmholtz.size()));
}

// Degree 17 (n1d 18) lies above kFixedMaxN1d: it pins the builders'
// runtime-order path next to every compile-time order.
INSTANTIATE_TEST_SUITE_P(
    DegreesAndDeformations, GeometryOracle,
    ::testing::Combine(::testing::Range(1, 18),
                       ::testing::Values(sem::Deformation::kNone, sem::Deformation::kSine,
                                         sem::Deformation::kTwist)),
    [](const ::testing::TestParamInfo<GeomCase>& tpi) {
      std::string name = "N";
      name += std::to_string(std::get<0>(tpi.param));
      name += "_";
      name += deformation_name(std::get<1>(tpi.param));
      return name;
    });

/// Deformed-mesh operands of one order: live SoA factors, the same factors
/// re-read into the frozen interleaved order, and a random input field.
struct AxCase {
  explicit AxCase(int n1d)
      : ref(n1d - 1), mesh(make_mesh(ref, sem::Deformation::kTwist)),
        gf(sem::geometric_factors(mesh, ref)), g_interleaved(interleave(gf)),
        u(mesh.n_local()), w_live(mesh.n_local(), 0.0), w_frozen(mesh.n_local(), 0.0) {
    SplitMix64 rng(4242 + static_cast<std::uint64_t>(n1d));
    for (double& v : u) {
      v = rng.uniform(-1.0, 1.0);
    }
  }

  [[nodiscard]] AxArgs live_args() {
    AxArgs a;
    a.u = u;
    a.w = w_live;
    a.g = std::span<const double>(gf.g.data(), gf.g.size());
    a.dx = std::span<const double>(ref.deriv().d.data(), ref.deriv().d.size());
    a.dxt = std::span<const double>(ref.deriv().dt.data(), ref.deriv().dt.size());
    a.n1d = ref.n1d();
    a.n_elements = gf.n_elements;
    return a;
  }

  sem::ReferenceElement ref;
  sem::Mesh mesh;
  sem::GeomFactors gf;
  std::vector<double> g_interleaved;
  std::vector<double> u;
  std::vector<double> w_live;
  std::vector<double> w_frozen;
};

template <int NX>
void frozen_fixed_apply(AxCase& c) {
  constexpr std::size_t ppe = static_cast<std::size_t>(NX) * NX * NX;
  std::vector<double> shur(ppe), shus(ppe), shut(ppe);
  for (std::size_t e = 0; e < c.gf.n_elements; ++e) {
    frozen::ax_element_fixed<NX>(c.u.data() + e * ppe, c.w_frozen.data() + e * ppe,
                                 c.g_interleaved.data() + e * ppe * sem::kGeomComponents,
                                 c.ref.deriv().d.data(), c.ref.deriv().dt.data(),
                                 shur.data(), shus.data(), shut.data());
  }
}

/// Runs frozen_fixed_apply<n1d> for a runtime n1d in [2, 17].
template <int... Is>
bool frozen_fixed_dispatch(int n1d, AxCase& c, std::integer_sequence<int, Is...>) {
  return ((n1d == Is + 2 ? (frozen_fixed_apply<Is + 2>(c), true) : false) || ...);
}

class AxOracle : public ::testing::TestWithParam<int> {};

TEST_P(AxOracle, FixedEqualsFrozenInterleavedBody) {
  AxCase c(GetParam());
  ax_fixed(c.live_args());
  ASSERT_TRUE(frozen_fixed_dispatch(GetParam(), c, std::make_integer_sequence<int, 16>{}));
  EXPECT_TRUE(bitwise_equal(c.w_live.data(), c.w_frozen.data(), c.w_live.size()));
}

TEST_P(AxOracle, ReferenceEqualsFrozenInterleavedBody) {
  AxCase c(GetParam());
  ax_reference(c.live_args());
  const std::size_t ppe = c.gf.ppe;
  std::vector<double> shur(ppe), shus(ppe), shut(ppe);
  for (std::size_t e = 0; e < c.gf.n_elements; ++e) {
    frozen::ax_element_body(c.u.data() + e * ppe, c.w_frozen.data() + e * ppe,
                            c.g_interleaved.data() + e * ppe * sem::kGeomComponents,
                            c.ref.deriv().d.data(), c.ref.deriv().dt.data(), c.ref.n1d(),
                            shur.data(), shus.data(), shut.data());
  }
  EXPECT_TRUE(bitwise_equal(c.w_live.data(), c.w_frozen.data(), c.w_live.size()));
}

INSTANTIATE_TEST_SUITE_P(EveryFixedOrder, AxOracle, ::testing::Range(2, 18),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           std::string name = "N1D";
                           name += std::to_string(tpi.param);
                           return name;
                         });

}  // namespace
}  // namespace semfpga::kernels
