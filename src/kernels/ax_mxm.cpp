#include <vector>

#include "kernels/ax.hpp"
#include "kernels/ax_internal.hpp"
#include "kernels/mxm.hpp"

namespace semfpga::kernels {
namespace {

/// Nekbone-structured Ax over a contiguous element range: local_grad3
/// (three mxm shapes), pointwise geometric contraction, local_grad3_t
/// (three transposed mxm shapes).  `Blocked` routes the matrix products
/// through the register-blocked mxm kernels; the two paths are bitwise
/// identical (blocking only reorders rows across, not within, outputs).
template <bool Blocked>
void ax_mxm_range_impl(const AxArgs& args, std::size_t e_begin, std::size_t e_end) {
  const std::size_t n = static_cast<std::size_t>(args.n1d);
  const std::size_t n2 = n * n;
  const std::size_t ppe = n2 * n;

  const auto product = [](const double* a, std::size_t n1, const double* b,
                          std::size_t nn2, double* c, std::size_t n3) {
    if constexpr (Blocked) {
      mxm_blocked(a, n1, b, nn2, c, n3);
    } else {
      mxm(a, n1, b, nn2, c, n3);
    }
  };
  const auto product_acc = [](const double* a, std::size_t n1, const double* b,
                              std::size_t nn2, double* c, std::size_t n3) {
    if constexpr (Blocked) {
      mxm_blocked_acc(a, n1, b, nn2, c, n3);
    } else {
      mxm_acc(a, n1, b, nn2, c, n3);
    }
  };

  // Per-thread scratch survives across calls, so short ranges (the fused
  // sweep's cache-sized chunks) pay no allocation.
  static thread_local std::vector<double> ur, us, ut;
  ur.resize(ppe);
  us.resize(ppe);
  ut.resize(ppe);

  for (std::size_t e = e_begin; e < e_end; ++e) {
    const double* u = args.u.data() + e * ppe;
    double* w = args.w.data() + e * ppe;
    const double* grr = args.g.data() + sem::geom_index(ppe, e, sem::kGrr, 0);
    const double* grs = args.g.data() + sem::geom_index(ppe, e, sem::kGrs, 0);
    const double* grt = args.g.data() + sem::geom_index(ppe, e, sem::kGrt, 0);
    const double* gss = args.g.data() + sem::geom_index(ppe, e, sem::kGss, 0);
    const double* gst = args.g.data() + sem::geom_index(ppe, e, sem::kGst, 0);
    const double* gtt = args.g.data() + sem::geom_index(ppe, e, sem::kGtt, 0);

    // --- local_grad3: ur = du/dr, us = du/ds, ut = du/dt ------------------
    // r-derivative: one (n^2 x n) * (n x n) product against D^T.
    product(u, n2, args.dxt.data(), n, ur.data(), n);
    // s-derivative: per-k slab (n x n) products with D on the left.
    for (std::size_t k = 0; k < n; ++k) {
      product(args.dx.data(), n, u + k * n2, n, us.data() + k * n2, n);
    }
    // t-derivative: one (n x n) * (n x n^2) product with D on the left.
    product(args.dx.data(), n, u, n, ut.data(), n2);

    // --- geometric contraction, in place --------------------------------
    for (std::size_t p = 0; p < ppe; ++p) {
      const double r = ur[p];
      const double s = us[p];
      const double t = ut[p];
      ur[p] = grr[p] * r + grs[p] * s + grt[p] * t;
      us[p] = grs[p] * r + gss[p] * s + gst[p] * t;
      ut[p] = grt[p] * r + gst[p] * s + gtt[p] * t;
    }

    // --- local_grad3_t: w = D_r^T ur + D_s^T us + D_t^T ut ----------------
    product(ur.data(), n2, args.dx.data(), n, w, n);
    for (std::size_t k = 0; k < n; ++k) {
      product_acc(args.dxt.data(), n, us.data() + k * n2, n, w + k * n2, n);
    }
    product_acc(args.dxt.data(), n, ut.data(), n, w, n2);
  }
}

}  // namespace

namespace detail {

void ax_mxm_range(const AxArgs& args, std::size_t e_begin, std::size_t e_end,
                  bool blocked) {
  if (blocked) {
    ax_mxm_range_impl<true>(args, e_begin, e_end);
  } else {
    ax_mxm_range_impl<false>(args, e_begin, e_end);
  }
}

}  // namespace detail

void ax_mxm(const AxArgs& args) {
  args.validate();
  detail::ax_mxm_range(args, 0, args.n_elements, /*blocked=*/false);
}

}  // namespace semfpga::kernels
