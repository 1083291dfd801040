#pragma once
/// \file mesh.hpp
/// Structured hexahedral spectral-element meshes.
///
/// Nekbone (the paper's CPU reference) runs on a box of hexahedral elements;
/// this module builds the same: a structured nelx x nely x nelz grid of
/// degree-N elements with element-major nodal coordinates, a global DOF
/// numbering for gather–scatter, and optional smooth deformations so that
/// geometric factors are exercised beyond the trivially-diagonal case.

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "sem/reference_element.hpp"

namespace semfpga::sem {

/// Smooth coordinate deformations applied to the undeformed box.
/// All maps fix the boundary of the box, so analytic Dirichlet test
/// problems remain valid on the deformed mesh.
enum class Deformation {
  kNone,      ///< axis-aligned affine elements (diagonal geometric factors)
  kSine,      ///< interior sine warp, x += a sin(pi xh) sin(pi yh) sin(pi zh)
  kTwist,     ///< interior rotation about the z-axis, angle ~ a sin(pi zh)
};

/// Parameters for box_mesh().
struct BoxMeshSpec {
  int degree = 7;                    ///< polynomial degree N
  int nelx = 4, nely = 4, nelz = 4;  ///< elements per direction
  double x0 = 0.0, x1 = 1.0;         ///< box extents
  double y0 = 0.0, y1 = 1.0;
  double z0 = 0.0, z1 = 1.0;
  Deformation deformation = Deformation::kNone;
  double deformation_amplitude = 0.05;
};

/// A structured SEM mesh with element-major nodal coordinates.
class Mesh {
 public:
  Mesh(BoxMeshSpec spec, const ReferenceElement& ref);

  /// Extracts the element box [x_begin,x_end) x [y_begin,y_end) x
  /// [z_begin,z_end) as a standalone mesh — the rank-local mesh of the SPMD
  /// runtime for every partition kind (runtime::partition_blocks).  Block
  /// elements are not contiguous in the parent, so coordinates are copied
  /// bitwise element by element (re-meshing a sub-box would re-round them
  /// and re-evaluate deformations against the wrong extents); global ids
  /// are renumbered to the block's own lattice (x-fastest, exactly the
  /// ordering a direct Mesh build would produce), and boundary flags are
  /// restricted from the parent — an inter-rank interface plane is *not*
  /// marked as domain boundary.
  /// \pre all ranges non-empty and inside the parent box.
  [[nodiscard]] static Mesh extract_block(const Mesh& parent, int x_begin,
                                          int x_end, int y_begin, int y_end,
                                          int z_begin, int z_end);

  [[nodiscard]] const BoxMeshSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] int degree() const noexcept { return spec_.degree; }
  [[nodiscard]] int n1d() const noexcept { return spec_.degree + 1; }
  [[nodiscard]] std::size_t n_elements() const noexcept { return n_elements_; }
  [[nodiscard]] std::size_t points_per_element() const noexcept { return ppe_; }
  [[nodiscard]] std::size_t n_local() const noexcept { return n_elements_ * ppe_; }
  /// Number of unique global DOFs (shared faces/edges/corners counted once).
  [[nodiscard]] std::size_t n_global() const noexcept { return n_global_; }

  /// Element-major nodal coordinates; index [e * points_per_element + ijk].
  [[nodiscard]] const aligned_vector<double>& x() const noexcept { return x_; }
  [[nodiscard]] const aligned_vector<double>& y() const noexcept { return y_; }
  [[nodiscard]] const aligned_vector<double>& z() const noexcept { return z_; }

  /// Global DOF id of each local node; index [e * points_per_element + ijk].
  [[nodiscard]] const std::vector<std::int64_t>& global_id() const noexcept {
    return global_id_;
  }

  /// True if the global DOF lies on the domain boundary.
  [[nodiscard]] const std::vector<std::uint8_t>& boundary_flag() const noexcept {
    return boundary_;
  }

 private:
  Mesh() = default;  ///< blank shell for extract_block

  BoxMeshSpec spec_;
  std::size_t n_elements_ = 0;
  std::size_t ppe_ = 0;
  std::size_t n_global_ = 0;
  aligned_vector<double> x_, y_, z_;
  std::vector<std::int64_t> global_id_;
  std::vector<std::uint8_t> boundary_;
};

/// Convenience builder: constructs the reference element internally.
[[nodiscard]] Mesh box_mesh(const BoxMeshSpec& spec);

}  // namespace semfpga::sem
