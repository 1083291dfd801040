#pragma once
/// \file dense.hpp
/// Dense assembly of the local stiffness matrix — verification only — and
/// the analytic local diagonal the Jacobi preconditioner is built from.
///
/// The paper stresses that forming A^e explicitly is prohibitively expensive
/// in production (Section II); we assemble it anyway for small N as an
/// independent oracle against which every matrix-free kernel is checked.

#include <cstddef>
#include <span>
#include <vector>

#include "sem/geometry.hpp"
#include "sem/reference_element.hpp"

namespace semfpga::sem {

/// Row-major dense matrix of one element's local Poisson operator,
/// size points_per_element() squared.  Assembled from the textbook triple
/// sum A_pq = sum_m sum_ab (D_a)_mp G_ab(m) (D_b)_mq — a code path fully
/// independent from the streaming kernels.
[[nodiscard]] std::vector<double> assemble_local_matrix(const ReferenceElement& ref,
                                                        const GeomFactors& gf,
                                                        std::size_t element);

/// Dense mat-vec helper for tests: y = A x.
[[nodiscard]] std::vector<double> dense_apply(const std::vector<double>& a,
                                              const std::vector<double>& x);

/// Raw (unassembled) Jacobi diagonal of every element: the diagonal of each
/// local Poisson matrix, computed analytically and matching
/// assemble_local_matrix's, plus `mass_lambda * gf.mass` (the addend is
/// skipped outright at 0, keeping the Poisson diagonal bitwise).  Written
/// into `out`, element-major like every field.
/// \pre out.size() == gf.n_elements * gf.ppe.
void local_diagonals(const ReferenceElement& ref, const GeomFactors& gf,
                     double mass_lambda, std::span<double> out);

}  // namespace semfpga::sem
