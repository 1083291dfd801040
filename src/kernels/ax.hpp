#pragma once
/// \file ax.hpp
/// Matrix-free local Poisson operator kernels (the paper's `Ax`, Listing 1).
///
/// Every variant computes, for each element,
///     w = D^T G D u
/// where D is the spectral differentiation matrix applied per tensor
/// direction and G the symmetric per-DOF geometric tensor.  Cost per DOF is
/// 6(N+1)+6 adds and 6(N+1)+9 mults (paper Section IV).
///
/// A note on `dx` / `dxt`: the paper's C listing receives Fortran
/// column-major arrays, so its `dxt` holds what is row-major D in C.  Here
/// both matrices are row-major with unambiguous meaning: `dx[a*n1d+b]` is
/// D_ab (derivative of cardinal function b at node a) and `dxt` is its
/// transpose.  The gradient phase contracts with D, the divergence phase
/// with D^T; both walk the matrices with unit stride.

#include <cstdint>
#include <span>

#include "sem/geometry.hpp"

namespace semfpga::kernels {

/// Operand bundle for the Ax kernels; all fields are element-major views.
struct AxArgs {
  std::span<const double> u;    ///< input field, n_elements * (N+1)^3
  std::span<double> w;          ///< output field, same shape
  std::span<const double> g;    ///< geometric factors, 6 per DOF, sem::geom_index layout
  std::span<const double> dx;   ///< row-major D, (N+1)^2
  std::span<const double> dxt;  ///< row-major D^T, (N+1)^2
  int n1d = 0;                  ///< GLL points per direction, N+1
  std::size_t n_elements = 0;

  /// Validates sizes; throws std::invalid_argument on mismatch.
  void validate() const;
};

/// Direct port of Listing 1: two loop nests per element with on-stack
/// shur/shus/shut work arrays.  The correctness oracle for all variants.
void ax_reference(const AxArgs& args);

/// OpenMP element-parallel reference body on all hardware threads — sugar
/// for ax_run(AxVariant::kReference, args, {0}) (kernels/ax_dispatch.hpp).
/// Bitwise equal to ax_reference; serial without OpenMP.
void ax_omp(const AxArgs& args);

/// Compile-time-dispatched variant: i-vectorised element body with the
/// inner contractions unrolled for n1d in [2, 17] (ax_fixed_n1d<N1D>);
/// out-of-range sizes fall back to the runtime-order body.
void ax_fixed(const AxArgs& args);

/// Nekbone-structured variant: local_grad3 / local_grad3_t expressed as
/// small mxm matrix products (kernels/mxm.hpp) — the exact shape of the
/// Fortran reference the paper's CPU baseline runs.  Results agree with
/// ax_reference up to contraction summation order.
void ax_mxm(const AxArgs& args);

/// Applies the operator to a single element (used by dense-matrix tests).
void ax_single_element(const sem::ReferenceElement& ref, const sem::GeomFactors& gf,
                       std::size_t element, std::span<const double> u,
                       std::span<double> w);

/// FLOPs per DOF of the Ax kernel: 12(N+1) + 15 (paper Section IV, C(N)).
[[nodiscard]] constexpr std::int64_t ax_flops_per_dof(int n1d) noexcept {
  return 12LL * n1d + 15;
}

/// Adds per DOF: 6(N+1) + 6.
[[nodiscard]] constexpr std::int64_t ax_adds_per_dof(int n1d) noexcept {
  return 6LL * n1d + 6;
}

/// Mults per DOF: 6(N+1) + 9.
[[nodiscard]] constexpr std::int64_t ax_mults_per_dof(int n1d) noexcept {
  return 6LL * n1d + 9;
}

/// Bytes moved per DOF assuming perfect on-chip reuse: 7 loads + 1 store of
/// doubles (paper Section IV, Q(N) = (7, 1)).
[[nodiscard]] constexpr std::int64_t ax_bytes_per_dof() noexcept { return 8 * 8; }

/// Total FLOPs for a full apply.
[[nodiscard]] constexpr std::int64_t ax_flops(int n1d, std::size_t n_elements) noexcept {
  const std::int64_t ppe = static_cast<std::int64_t>(n1d) * n1d * n1d;
  return ax_flops_per_dof(n1d) * ppe * static_cast<std::int64_t>(n_elements);
}

/// Operational intensity in FLOP/byte: (12(N+1)+15)/64 (paper Section IV).
[[nodiscard]] constexpr double ax_intensity(int n1d) noexcept {
  return static_cast<double>(ax_flops_per_dof(n1d)) /
         static_cast<double>(ax_bytes_per_dof());
}

}  // namespace semfpga::kernels
