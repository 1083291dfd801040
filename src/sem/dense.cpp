#include "sem/dense.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/fixed_order.hpp"

namespace semfpga::sem {
namespace {

/// Entry (m, p) of the direction-`a` discrete gradient: nonzero only when
/// p differs from m in coordinate `a` alone.  m and p are (i,j,k) triples.
struct TensorPoint {
  int i, j, k;
};

}  // namespace

std::vector<double> assemble_local_matrix(const ReferenceElement& ref,
                                          const GeomFactors& gf, std::size_t element) {
  SEMFPGA_CHECK(element < gf.n_elements, "element index out of range");
  const int n1d = ref.n1d();
  const std::size_t ppe = ref.points_per_element();
  const auto& d = ref.deriv().d;

  std::vector<double> a(ppe * ppe, 0.0);

  // Component of G for a direction pair (da, db), symmetric storage.
  auto gcomp = [](int da, int db) {
    static constexpr int map[3][3] = {{kGrr, kGrs, kGrt}, {kGrs, kGss, kGst}, {kGrt, kGst, kGtt}};
    return map[da][db];
  };

  for (int mk = 0; mk < n1d; ++mk) {
    for (int mj = 0; mj < n1d; ++mj) {
      for (int mi = 0; mi < n1d; ++mi) {
        const std::size_t m = ref.index(mi, mj, mk);
        for (int da = 0; da < 3; ++da) {
          for (int db = 0; db < 3; ++db) {
            const double gval = gf.at(element, m, gcomp(da, db));
            // p runs over the support of (D_a)_{m,.}: vary coordinate da.
            for (int lp = 0; lp < n1d; ++lp) {
              TensorPoint p{mi, mj, mk};
              double dap = 0.0;
              switch (da) {
                case 0:
                  p.i = lp;
                  dap = d[static_cast<std::size_t>(mi) * n1d + lp];
                  break;
                case 1:
                  p.j = lp;
                  dap = d[static_cast<std::size_t>(mj) * n1d + lp];
                  break;
                default:
                  p.k = lp;
                  dap = d[static_cast<std::size_t>(mk) * n1d + lp];
                  break;
              }
              const std::size_t pi = ref.index(p.i, p.j, p.k);
              for (int lq = 0; lq < n1d; ++lq) {
                TensorPoint q{mi, mj, mk};
                double dbq = 0.0;
                switch (db) {
                  case 0:
                    q.i = lq;
                    dbq = d[static_cast<std::size_t>(mi) * n1d + lq];
                    break;
                  case 1:
                    q.j = lq;
                    dbq = d[static_cast<std::size_t>(mj) * n1d + lq];
                    break;
                  default:
                    q.k = lq;
                    dbq = d[static_cast<std::size_t>(mk) * n1d + lq];
                    break;
                }
                const std::size_t qi = ref.index(q.i, q.j, q.k);
                a[pi * ppe + qi] += dap * gval * dbq;
              }
            }
          }
        }
      }
    }
  }
  return a;
}

std::vector<double> dense_apply(const std::vector<double>& a, const std::vector<double>& x) {
  const std::size_t n = x.size();
  SEMFPGA_CHECK(a.size() == n * n, "matrix/vector size mismatch");
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += a[i * n + j] * x[j];
    }
    y[i] = acc;
  }
  return y;
}

namespace {

/// local_diagonals at order NX (NX == 0: the runtime order of `ref`).  Each
/// node's diagonal is one scalar accumulator; at a compile-time order the
/// length-NX line sums unroll and the nodes of a row vectorise side by
/// side, every lane keeping the per-node ascending-l order.
template <int NX>
void build_diagonals(const ReferenceElement& ref, const GeomFactors& gf,
                     double mass_lambda, std::span<double> out) {
  const std::size_t ppe = gf.ppe;
  const std::size_t n = NX > 0 ? static_cast<std::size_t>(NX)
                               : static_cast<std::size_t>(ref.n1d());
  const std::size_t n2 = n * n;
  const double* d = ref.deriv().d.data();

  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    const double* grr = gf.g.data() + geom_index(ppe, e, kGrr, 0);
    const double* grs = gf.g.data() + geom_index(ppe, e, kGrs, 0);
    const double* grt = gf.g.data() + geom_index(ppe, e, kGrt, 0);
    const double* gss = gf.g.data() + geom_index(ppe, e, kGss, 0);
    const double* gst = gf.g.data() + geom_index(ppe, e, kGst, 0);
    const double* gtt = gf.g.data() + geom_index(ppe, e, kGtt, 0);
    double* diag = out.data() + e * ppe;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t row = n * j + n2 * k;
        const double djj = d[j * n + j];
        const double dkk = d[k * n + k];
        for (std::size_t i = 0; i < n; ++i) {
          // Same-direction terms: sum over the quadrature line through the
          // node.
          double acc = 0.0;
          for (std::size_t l = 0; l < n; ++l) {
            const double* dl = d + l * n;
            acc += grr[l + row] * dl[i] * dl[i];
            acc += gss[i + n * l + n2 * k] * dl[j] * dl[j];
            acc += gtt[i + n * j + n2 * l] * dl[k] * dl[k];
          }
          // Cross terms collapse to the diagonal D entries at the node.
          const double dii = d[i * n + i];
          acc += 2.0 * grs[row + i] * dii * djj;
          acc += 2.0 * grt[row + i] * dii * dkk;
          acc += 2.0 * gst[row + i] * djj * dkk;
          diag[row + i] = acc;
        }
      }
    }
    if (mass_lambda != 0.0) {
      const double* mass = gf.mass.data() + e * ppe;
      for (std::size_t p = 0; p < ppe; ++p) {
        diag[p] += mass_lambda * mass[p];
      }
    }
  }
}

}  // namespace

void local_diagonals(const ReferenceElement& ref, const GeomFactors& gf,
                     double mass_lambda, std::span<double> out) {
  SEMFPGA_CHECK(out.size() == gf.n_elements * gf.ppe,
                "diagonal view must cover every element");
  SEMFPGA_CHECK(ref.points_per_element() == gf.ppe, "reference element degree mismatch");
  dispatch_n1d(
      ref.n1d(),
      [&](auto nx) { build_diagonals<decltype(nx)::value>(ref, gf, mass_lambda, out); },
      [&] { build_diagonals<0>(ref, gf, mass_lambda, out); });
}

}  // namespace semfpga::sem
