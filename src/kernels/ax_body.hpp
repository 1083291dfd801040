#pragma once
/// \file ax_body.hpp
/// Precision-generic element body of the local Poisson operator.
///
/// Shared by the double-precision reference kernel (kernels/ax.hpp) and the
/// FP32 variant used for the precision-ablation study (kernels/ax_f32.hpp).
/// The paper's footnote 6 motivates the ablation: "Experiments with
/// single-precision or lower may work for some scenarios, but for longer
/// simulations in particular the cumulative error can lead to highly
/// inaccurate results."

#include <cstddef>

#include "sem/geometry.hpp"

namespace semfpga::kernels {

/// Applies w = D^T G D u on one element — the scalar Listing-1 body.
/// `Real` is float or double; the operation order is identical across
/// precisions so differences are pure rounding.  `g` points at the
/// element's six component rows (sem::geom_index).  Work arrays
/// shur/shus/shut are caller-provided ((N+1)^3 each).
template <class Real>
void ax_element_body_t(const Real* u, Real* w, const Real* g, const Real* dx,
                       const Real* dxt, int nx, Real* shur, Real* shus, Real* shut) {
  const std::size_t n = static_cast<std::size_t>(nx);
  const std::size_t ppe = n * n * n;
  const Real* grr = g + sem::geom_index(ppe, 0, sem::kGrr, 0);
  const Real* grs = g + sem::geom_index(ppe, 0, sem::kGrs, 0);
  const Real* grt = g + sem::geom_index(ppe, 0, sem::kGrt, 0);
  const Real* gss = g + sem::geom_index(ppe, 0, sem::kGss, 0);
  const Real* gst = g + sem::geom_index(ppe, 0, sem::kGst, 0);
  const Real* gtt = g + sem::geom_index(ppe, 0, sem::kGtt, 0);
  for (int k = 0; k < nx; ++k) {
    for (int j = 0; j < nx; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t ijk =
            static_cast<std::size_t>(i) + n * j + n * n * k;
        Real rtmp = Real(0);
        Real stmp = Real(0);
        Real ttmp = Real(0);
        for (int l = 0; l < nx; ++l) {
          rtmp += dx[static_cast<std::size_t>(i) * n + l] *
                  u[static_cast<std::size_t>(l) + n * j + n * n * k];
          stmp += dx[static_cast<std::size_t>(j) * n + l] *
                  u[static_cast<std::size_t>(i) + n * l + n * n * k];
          ttmp += dx[static_cast<std::size_t>(k) * n + l] *
                  u[static_cast<std::size_t>(i) + n * j + n * n * l];
        }
        shur[ijk] = grr[ijk] * rtmp + grs[ijk] * stmp + grt[ijk] * ttmp;
        shus[ijk] = grs[ijk] * rtmp + gss[ijk] * stmp + gst[ijk] * ttmp;
        shut[ijk] = grt[ijk] * rtmp + gst[ijk] * stmp + gtt[ijk] * ttmp;
      }
    }
  }
  for (int k = 0; k < nx; ++k) {
    for (int j = 0; j < nx; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t ijk =
            static_cast<std::size_t>(i) + n * j + n * n * k;
        Real acc = Real(0);
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

}  // namespace semfpga::kernels
