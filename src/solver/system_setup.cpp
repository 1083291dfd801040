#include "solver/system_setup.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/obs.hpp"
#include "sem/dense.hpp"

namespace semfpga::solver {

std::shared_ptr<const SystemSetup> SystemSetup::build(const sem::Mesh& mesh,
                                                      double mass_lambda) {
  return std::shared_ptr<const SystemSetup>(
      new SystemSetup(nullptr, mesh, mass_lambda));
}

std::shared_ptr<const SystemSetup> SystemSetup::build_owning(sem::Mesh mesh,
                                                             double mass_lambda) {
  auto owned = std::make_unique<const sem::Mesh>(std::move(mesh));
  const sem::Mesh& m = *owned;
  return std::shared_ptr<const SystemSetup>(
      new SystemSetup(std::move(owned), m, mass_lambda));
}

SystemSetup::SystemSetup(std::unique_ptr<const sem::Mesh> owned,
                         const sem::Mesh& m, double lambda)
    : owned_mesh_(std::move(owned)),
      mesh_ptr_(&m),
      ref(m.degree()),
      geom(sem::geometric_factors(m, ref)),
      gs(m),
      mass_lambda(lambda) {
  SEMFPGA_CHECK(mass_lambda >= 0.0, "diagonal mass coefficient must be >= 0");
  const std::size_t n = gs.n_local();

  // Dirichlet mask from the mesh's boundary flags.
  mask.resize(n);
  const auto& ids = m.global_id();
  const auto& bnd = m.boundary_flag();
  for (std::size_t p = 0; p < n; ++p) {
    mask[p] = bnd[static_cast<std::size_t>(ids[p])] != 0 ? 0.0 : 1.0;
  }

  {
    OBS_SPAN("setup.diagonal");
    // Assembled Jacobi diagonal, built in place: local diagonals (plus the
    // mass term for Helmholtz-type systems) summed across elements in
    // canonical order, then pinned to 1 on masked DOFs.
    diagonal.resize(n);
    sem::local_diagonals(ref, geom, mass_lambda, diagonal);
    gs.qqt(diagonal);
    for (std::size_t p = 0; p < n; ++p) {
      if (mask[p] == 0.0) {
        diagonal[p] = 1.0;
      }
    }
  }

  const std::size_t ppe = ref.points_per_element();

  // Compile the mask for the fused qqt-in-operator sweep: the mask value of
  // each shared CSR row, and the per-element list of multiplicity-1 DOFs
  // the epilogue must zero.
  const auto& shared_offsets = gs.shared_offsets();
  const auto& shared_positions = gs.shared_positions();
  shared_row_mask.resize(gs.n_shared_dofs());
  for (std::size_t s = 0; s < gs.n_shared_dofs(); ++s) {
    shared_row_mask[s] = mask[static_cast<std::size_t>(
        shared_positions[static_cast<std::size_t>(shared_offsets[s])])];
  }
  zero_offsets.assign(geom.n_elements + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    if (gs.multiplicity()[p] == 1.0 && mask[p] == 0.0) {
      zero_positions.push_back(static_cast<std::int64_t>(p));
      ++zero_offsets[p / ppe + 1];
    }
  }
  for (std::size_t e = 0; e < geom.n_elements; ++e) {
    zero_offsets[e + 1] += zero_offsets[e];
  }
}

}  // namespace semfpga::solver
