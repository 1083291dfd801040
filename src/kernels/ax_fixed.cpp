#include <cstddef>

#include "common/aligned.hpp"
#include "kernels/ax.hpp"
#include "kernels/ax_dispatch.hpp"

namespace semfpga::kernels {
namespace {

/// Compile-time-size element body, restructured for CPU SIMD: every inner
/// loop runs over the fastest index i with unit stride, and with NX a
/// constant the compiler fully unrolls the length-NX contraction loops —
/// the CPU analogue of the paper's HLS `#pragma unroll` on the dot-product
/// loops.  Each contraction is register-blocked over a k-plane, the CPU
/// analogue of the shift registers HLS builds: every D row, u row or
/// broadcast loaded for one l feeds the NX row accumulators of the plane.
/// G is read as six unit-stride component rows (the paper's split `gxyz`).
/// Every output keeps the ascending-l accumulation and the per-term
/// expressions of an unblocked row-by-row body, so blocking changes no bit
/// (tests/kernels/test_layout_oracle.cpp pins it).
template <int NX>
void ax_element_fixed(const double* __restrict u, double* __restrict w,
                      const double* __restrict g, const double* __restrict dx,
                      const double* __restrict dxt, double* __restrict shur,
                      double* __restrict shus, double* __restrict shut) {
  constexpr std::size_t n = NX;
  constexpr std::size_t n2 = n * n;
  constexpr std::size_t ppe = n2 * n;
  const double* __restrict grr = g + sem::geom_index(ppe, 0, sem::kGrr, 0);
  const double* __restrict grs = g + sem::geom_index(ppe, 0, sem::kGrs, 0);
  const double* __restrict grt = g + sem::geom_index(ppe, 0, sem::kGrt, 0);
  const double* __restrict gss = g + sem::geom_index(ppe, 0, sem::kGss, 0);
  const double* __restrict gst = g + sem::geom_index(ppe, 0, sem::kGst, 0);
  const double* __restrict gtt = g + sem::geom_index(ppe, 0, sem::kGtt, 0);

  // Gradient phase, one k-plane at a time: the three directional
  // derivatives of the plane, then the contraction with G.
  for (std::size_t k = 0; k < n; ++k) {
    const double* uk = u + n2 * k;
    double rtmp[NX][NX] = {};
    double stmp[NX][NX] = {};
    double ttmp[NX][NX] = {};
    // d/dr: rtmp[j][i] = sum_l D[i][l] u[l,j,k] — broadcast u, stream D^T rows.
    for (std::size_t l = 0; l < n; ++l) {
      const double* dxt_l = dxt + l * n;
      for (std::size_t j = 0; j < n; ++j) {
        const double u_l = uk[l + n * j];
        // omp simd pins the vector dimension to i; without it GCC fully
        // unrolls these short loops and vectorises across the reduction.
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
          rtmp[j][i] += u_l * dxt_l[i];
        }
      }
    }
    // d/ds: stmp[j][i] = sum_l D[j][l] u[i,l,k] — broadcast D, stream u rows.
    for (std::size_t l = 0; l < n; ++l) {
      const double* u_s = uk + n * l;
      for (std::size_t j = 0; j < n; ++j) {
        const double d_jl = dx[j * n + l];
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
          stmp[j][i] += d_jl * u_s[i];
        }
      }
    }
    // d/dt: ttmp[j][i] = sum_l D[k][l] u[i,j,l] — one broadcast per l.
    for (std::size_t l = 0; l < n; ++l) {
      const double d_kl = dx[k * n + l];
      const double* ul = u + n2 * l;
      for (std::size_t j = 0; j < n; ++j) {
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
          ttmp[j][i] += d_kl * ul[i + n * j];
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t ijk = i + n * j + n2 * k;
        shur[ijk] = grr[ijk] * rtmp[j][i] + grs[ijk] * stmp[j][i] + grt[ijk] * ttmp[j][i];
        shus[ijk] = grs[ijk] * rtmp[j][i] + gss[ijk] * stmp[j][i] + gst[ijk] * ttmp[j][i];
        shut[ijk] = grt[ijk] * rtmp[j][i] + gst[ijk] * stmp[j][i] + gtt[ijk] * ttmp[j][i];
      }
    }
  }
  // Divergence phase: w = D^T shur + D^T shus + D^T shut, one k-plane at a
  // time; the D row and the shus row of each l feed every j of the plane.
  for (std::size_t k = 0; k < n; ++k) {
    double acc[NX][NX] = {};
    for (std::size_t l = 0; l < n; ++l) {
      const double* dx_l = dx + l * n;
      const double dt_kl = dxt[k * n + l];
      const double* s_row = shus + n * l + n2 * k;
      const double* t_plane = shut + n2 * l;
      for (std::size_t j = 0; j < n; ++j) {
        const double r_l = shur[l + n * j + n2 * k];
        const double dt_jl = dxt[j * n + l];
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
          acc[j][i] += r_l * dx_l[i] + dt_jl * s_row[i] + dt_kl * t_plane[i + n * j];
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        w[i + n * j + n2 * k] = acc[j][i];
      }
    }
  }
}

}  // namespace

template <int N1D>
void ax_fixed_n1d(const AxArgs& args, std::size_t e_begin, std::size_t e_end) {
  constexpr std::size_t ppe = static_cast<std::size_t>(N1D) * N1D * N1D;
  // Per-thread scratch survives across calls, so short ranges (the fused
  // sweep's cache-sized chunks) pay no allocation.  64-byte aligned, so no
  // vector access to it splits a cache line.
  static thread_local aligned_vector<double> shur(ppe), shus(ppe), shut(ppe);
  for (std::size_t e = e_begin; e < e_end; ++e) {
    ax_element_fixed<N1D>(args.u.data() + e * ppe, args.w.data() + e * ppe,
                          args.g.data() + sem::geom_index(ppe, e, 0, 0), args.dx.data(),
                          args.dxt.data(), shur.data(), shus.data(), shut.data());
  }
}

template void ax_fixed_n1d<2>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<3>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<4>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<5>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<6>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<7>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<8>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<9>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<10>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<11>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<12>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<13>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<14>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<15>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<16>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<17>(const AxArgs&, std::size_t, std::size_t);

void ax_fixed(const AxArgs& args) {
  args.validate();
  ax_run_range(AxVariant::kFixed, args, 0, args.n_elements);
}

}  // namespace semfpga::kernels
