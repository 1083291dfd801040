#pragma once
/// \file geometry.hpp
/// Geometric factors for the local Poisson operator.
///
/// Paper Section II: the matrix-free operator is w = D^T G D u per element,
/// where G holds, at every quadrature node, the symmetric 3x3 tensor
///   G = w_ijk |det J| J^{-1} J^{-T}
/// (J = d(x,y,z)/d(r,s,t)).  Six unique entries per DOF are stored — the
/// `gxyz` stream of Listing 1, with c in {rr, rs, rt, ss, st, tt} — but split
/// the way the paper's Section III-B optimisation splits it: per element, six
/// contiguous component rows of (N+1)^3 values, g[(e*6 + c)*ppe + ijk]
/// (geom_index).  Every kernel then reads each component at unit stride.

#include <cstddef>

#include "common/aligned.hpp"
#include "sem/mesh.hpp"
#include "sem/reference_element.hpp"

namespace semfpga::sem {

/// Index of each unique entry of the symmetric geometric tensor.
enum GeomComponent : int {
  kGrr = 0,
  kGrs = 1,
  kGrt = 2,
  kGss = 3,
  kGst = 4,
  kGtt = 5,
};
inline constexpr int kGeomComponents = 6;

/// Offset of component `c` at node `ijk` of element `e` in GeomFactors::g
/// (and in every kernel's `g` operand): per element, six contiguous
/// component rows of `ppe` values each.
[[nodiscard]] constexpr std::size_t geom_index(std::size_t ppe, std::size_t e, int c,
                                               std::size_t ijk) noexcept {
  return (e * kGeomComponents + static_cast<std::size_t>(c)) * ppe + ijk;
}

/// Geometric factors of every element of a mesh.
struct GeomFactors {
  int n1d = 0;
  std::size_t n_elements = 0;
  std::size_t ppe = 0;  ///< points per element

  /// Per-element structure of arrays: g[geom_index(ppe, e, c, ijk)].
  aligned_vector<double> g;

  /// Quadrature mass factor w_ijk * |det J| per DOF (used by the BK5-style
  /// Helmholtz variant and by right-hand-side assembly): [e*ppe + ijk].
  aligned_vector<double> mass;

  [[nodiscard]] double at(std::size_t e, std::size_t ijk, int c) const noexcept {
    return g[geom_index(ppe, e, c, ijk)];
  }
};

/// Computes geometric factors from nodal coordinates.  Derivatives of the
/// coordinate fields are taken with the spectral differentiation matrix, so
/// curved (deformed) elements are handled exactly up to interpolation order.
/// \throws std::invalid_argument if any nodal Jacobian determinant is <= 0.
[[nodiscard]] GeomFactors geometric_factors(const Mesh& mesh, const ReferenceElement& ref);

}  // namespace semfpga::sem
