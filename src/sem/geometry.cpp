#include "sem/geometry.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/fixed_order.hpp"
#include "obs/obs.hpp"

namespace semfpga::sem {
namespace {

/// Nine derivative rows of one grid row, [(3a + b)*NX + i] = d x_a / d xi_b
/// at node i: a local array at a compile-time order, so the accumulators
/// live in registers; a heap row at a runtime order (NX == 0).
template <int NX>
auto derivative_rows(std::size_t n) {
  if constexpr (NX > 0) {
    return std::array<double, 9 * NX>{};
  } else {
    return std::vector<double>(9 * n);
  }
}

/// Element bodies at order NX (NX == 0: the runtime order of `ref`).  Per
/// grid row (j, k), one ascending-l pass takes the nine coordinate
/// derivatives, vectorised over i: dr/ds/dt[i] = sum_l D[i|j|k][l] *
/// f(...), each an ascending-l sum of `d * f` terms — the per-node
/// contraction, sum-factorised.  `dt` is D^T, so the r-contraction reads
/// D's column i at unit stride.  The per-node determinant, check, inverse
/// and G statements then run on the row.
template <int NX>
void build_factors(const Mesh& mesh, const ReferenceElement& ref, GeomFactors& gf) {
  const std::size_t n = NX > 0 ? static_cast<std::size_t>(NX)
                               : static_cast<std::size_t>(ref.n1d());
  const std::size_t n2 = n * n;
  const std::size_t ppe = gf.ppe;
  const double* d = ref.deriv().d.data();
  const double* dt = ref.deriv().dt.data();
  const std::array<const double*, 3> coords = {
      {mesh.x().data(), mesh.y().data(), mesh.z().data()}};
  auto rows = derivative_rows<NX>(n);

  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    const std::size_t base = e * ppe;
    double* g = gf.g.data() + geom_index(ppe, e, 0, 0);
    double* mass = gf.mass.data() + base;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t row = n * j + n2 * k;
        for (double& v : rows) {
          v = 0.0;
        }
        for (std::size_t l = 0; l < n; ++l) {
          const double* dt_l = dt + l * n;
          const double d_jl = d[j * n + l];
          const double d_kl = d[k * n + l];
          for (std::size_t a = 0; a < 3; ++a) {
            const double* f = coords[a] + base;
            const double f_l = f[l + row];
            const double* f_s = f + n * l + n2 * k;
            const double* f_t = f + n * j + n2 * l;
            double* dr = rows.data() + 3 * a * n;
            double* ds = dr + n;
            double* dtt = ds + n;
            // omp simd pins the vector dimension to i, as in the Ax kernel:
            // left to itself GCC vectorises the unrolled row another way and
            // fuses the multiply-adds differently, which changes bits.
#pragma omp simd
            for (std::size_t i = 0; i < n; ++i) {
              dr[i] += dt_l[i] * f_l;
              ds[i] += d_jl * f_s[i];
              dtt[i] += d_kl * f_t[i];
            }
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t ijk = row + i;

          // Jacobian J[a][b] = d x_a / d xi_b at this node.
          double jm[3][3];
          for (std::size_t a = 0; a < 3; ++a) {
            for (std::size_t b = 0; b < 3; ++b) {
              jm[a][b] = rows[(3 * a + b) * n + i];
            }
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

          const double w = ref.weight3d(static_cast<int>(i), static_cast<int>(j),
                                        static_cast<int>(k));
          const double scale = w * det;

          // G_ab = scale * sum_c inv[a][c] * inv[b][c]  (a,b index r,s,t).
          auto gab = [&inv, scale](int a, int b) {
            return scale * (inv[a][0] * inv[b][0] + inv[a][1] * inv[b][1] +
                            inv[a][2] * inv[b][2]);
          };

          g[geom_index(ppe, 0, kGrr, ijk)] = gab(0, 0);
          g[geom_index(ppe, 0, kGrs, ijk)] = gab(0, 1);
          g[geom_index(ppe, 0, kGrt, ijk)] = gab(0, 2);
          g[geom_index(ppe, 0, kGss, ijk)] = gab(1, 1);
          g[geom_index(ppe, 0, kGst, ijk)] = gab(1, 2);
          g[geom_index(ppe, 0, kGtt, ijk)] = gab(2, 2);

          mass[ijk] = scale;
        }
      }
    }
  }
}

}  // namespace

GeomFactors geometric_factors(const Mesh& mesh, const ReferenceElement& ref) {
  SEMFPGA_CHECK(ref.degree() == mesh.degree(), "reference element degree mismatch");
  OBS_SPAN("setup.geometry");
  const std::size_t ppe = mesh.points_per_element();
  const std::size_t ne = mesh.n_elements();

  GeomFactors gf;
  gf.n1d = mesh.n1d();
  gf.n_elements = ne;
  gf.ppe = ppe;
  gf.g.assign(ne * ppe * kGeomComponents, 0.0);
  gf.mass.assign(ne * ppe, 0.0);

  dispatch_n1d(
      gf.n1d, [&](auto nx) { build_factors<decltype(nx)::value>(mesh, ref, gf); },
      [&] { build_factors<0>(mesh, ref, gf); });
  return gf;
}

}  // namespace semfpga::sem
