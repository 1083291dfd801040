#pragma once
/// \file ax_f32.hpp
/// Single-precision Ax kernel for the precision-ablation study.
///
/// The paper keeps double precision throughout ("a non-negotiable
/// requirement in higher order FEM", footnote 6) but its Section V-D
/// discusses FP32-hardened DSPs.  This variant lets the repository
/// quantify both sides: halved memory traffic and DSP-native arithmetic
/// versus the accuracy loss inside an iterative solver.

#include <span>
#include <vector>

#include "kernels/ax.hpp"

namespace semfpga::kernels {

/// Operands in single precision, element-major like AxArgs.
struct AxArgsF32 {
  std::span<const float> u;
  std::span<float> w;
  std::span<const float> g;    ///< geometric factors, sem::geom_index layout
  std::span<const float> dx;   ///< row-major D
  std::span<const float> dxt;  ///< row-major D^T
  int n1d = 0;
  std::size_t n_elements = 0;

  void validate() const;
};

/// FP32 port of the reference kernel (identical operation order).
void ax_reference_f32(const AxArgsF32& args);

/// Demotes a double field to float (for staging FP64 operands).
[[nodiscard]] std::vector<float> demote(std::span<const double> v);

/// Promotes a float field back to double.
[[nodiscard]] std::vector<double> promote(std::span<const float> v);

/// Bytes per DOF when streaming FP32 operands: 8 accesses x 4 bytes.
[[nodiscard]] constexpr std::int64_t ax_bytes_per_dof_f32() noexcept { return 8 * 4; }

}  // namespace semfpga::kernels
