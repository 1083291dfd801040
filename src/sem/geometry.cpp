#include "sem/geometry.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace semfpga::sem {
namespace {

/// The three reference-direction derivatives of nodal field `f` (one
/// element) along the grid row (j, k), vectorised over i: dr/ds/dt[i] =
/// sum_l D[i|j|k][l] * f(...), each an ascending-l sum of `d * f` terms —
/// the per-node contraction, sum-factorised.  `dt` is D^T, so the
/// r-contraction reads D's column i at unit stride.
void row_derivatives(const double* __restrict f, const double* __restrict d,
                     const double* __restrict dt, std::size_t n, std::size_t j,
                     std::size_t k, double* __restrict dr, double* __restrict ds,
                     double* __restrict dtt) {
  const std::size_t n2 = n * n;
  const std::size_t row = n * j + n2 * k;
  for (std::size_t i = 0; i < n; ++i) {
    dr[i] = 0.0;
    ds[i] = 0.0;
    dtt[i] = 0.0;
  }
  for (std::size_t l = 0; l < n; ++l) {
    const double f_l = f[l + row];
    const double* dt_l = dt + l * n;
    const double d_jl = d[j * n + l];
    const double d_kl = d[k * n + l];
    const double* f_s = f + n * l + n2 * k;
    const double* f_t = f + n * j + n2 * l;
    for (std::size_t i = 0; i < n; ++i) {
      dr[i] += dt_l[i] * f_l;
      ds[i] += d_jl * f_s[i];
      dtt[i] += d_kl * f_t[i];
    }
  }
}

}  // namespace

GeomFactors geometric_factors(const Mesh& mesh, const ReferenceElement& ref) {
  SEMFPGA_CHECK(ref.degree() == mesh.degree(), "reference element degree mismatch");
  const int n1d = mesh.n1d();
  const std::size_t n = static_cast<std::size_t>(n1d);
  const std::size_t ppe = mesh.points_per_element();
  const std::size_t ne = mesh.n_elements();

  GeomFactors gf;
  gf.n1d = n1d;
  gf.n_elements = ne;
  gf.ppe = ppe;
  gf.g.assign(ne * ppe * kGeomComponents, 0.0);
  gf.mass.assign(ne * ppe, 0.0);
  gf.jac_det.assign(ne * ppe, 0.0);

  const double* d = ref.deriv().d.data();
  const double* dt = ref.deriv().dt.data();
  const std::array<const double*, 3> coords = {
      {mesh.x().data(), mesh.y().data(), mesh.z().data()}};
  // rows[(3a + b)*n + i] = d x_a / d xi_b at node i of the current row.
  std::vector<double> rows(9 * n);

  for (std::size_t e = 0; e < ne; ++e) {
    const std::size_t base = e * ppe;
    for (int k = 0; k < n1d; ++k) {
      for (int j = 0; j < n1d; ++j) {
        for (std::size_t a = 0; a < 3; ++a) {
          double* ra = rows.data() + 3 * a * n;
          row_derivatives(coords[a] + base, d, dt, n, static_cast<std::size_t>(j),
                          static_cast<std::size_t>(k), ra, ra + n, ra + 2 * n);
        }
        for (int i = 0; i < n1d; ++i) {
          const std::size_t ijk = ref.index(i, j, k);

          // Jacobian J[a][b] = d x_a / d xi_b at this node.
          double jm[3][3];
          for (std::size_t a = 0; a < 3; ++a) {
            for (std::size_t b = 0; b < 3; ++b) {
              jm[a][b] = rows[(3 * a + b) * n + static_cast<std::size_t>(i)];
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

          const double w = ref.weight3d(i, j, k);
          const double scale = w * det;

          // G_ab = scale * sum_c inv[a][c] * inv[b][c]  (a,b index r,s,t).
          auto gab = [&inv, scale](int a, int b) {
            return scale * (inv[a][0] * inv[b][0] + inv[a][1] * inv[b][1] +
                            inv[a][2] * inv[b][2]);
          };

          gf.g[geom_index(ppe, e, kGrr, ijk)] = gab(0, 0);
          gf.g[geom_index(ppe, e, kGrs, ijk)] = gab(0, 1);
          gf.g[geom_index(ppe, e, kGrt, ijk)] = gab(0, 2);
          gf.g[geom_index(ppe, e, kGss, ijk)] = gab(1, 1);
          gf.g[geom_index(ppe, e, kGst, ijk)] = gab(1, 2);
          gf.g[geom_index(ppe, e, kGtt, ijk)] = gab(2, 2);

          gf.mass[base + ijk] = scale;
          gf.jac_det[base + ijk] = det;
        }
      }
    }
  }
  return gf;
}

}  // namespace semfpga::sem
