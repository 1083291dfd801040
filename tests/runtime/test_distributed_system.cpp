/// Rank-local building blocks of the SPMD runtime against the single-rank
/// oracle: full-x/y block (slab) mesh extraction, corrected
/// multiplicity/diagonal, the two-level gather-scatter and the distributed
/// operator/RHS — all bitwise.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "runtime/distributed_cg.hpp"
#include "runtime/rank_system.hpp"
#include "runtime/partition.hpp"
#include "runtime/spmd.hpp"

namespace semfpga::runtime {
namespace {

sem::BoxMeshSpec small_spec(int degree, int nelz,
                            sem::Deformation deformation = sem::Deformation::kNone) {
  sem::BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = 2;
  spec.nely = 3;
  spec.nelz = nelz;
  spec.deformation = deformation;
  return spec;
}

/// Runs `body(rank_system, node_offset)` once per rank over `n_ranks`
/// z-slabs of `spec`.  Slabs own contiguous global element ranges, so a
/// single node offset still addresses each rank's slice of global vectors
/// (the pencil/3D generalization is covered by test_partition_oracle).
template <class Body>
void with_rank_systems(const sem::BoxMeshSpec& spec, int n_ranks, Body&& body) {
  const sem::Mesh global = sem::box_mesh(spec);
  const BlockPartition part = partition_blocks(spec, n_ranks, PartitionKind::kSlab);
  InProcessFabric fabric(n_ranks, static_cast<std::size_t>(spec.nelx) *
                                      static_cast<std::size_t>(spec.nely) *
                                      static_cast<std::size_t>(spec.nelz));
  const std::size_t ppe = global.points_per_element();
  spmd_run(fabric, 1, [&](const RankEnv& env) {
    RankSystem rs(global, part, env.rank, fabric, env.team_threads);
    const std::size_t offset =
        static_cast<std::size_t>(part.ranks[static_cast<std::size_t>(env.rank)].z_begin) *
        static_cast<std::size_t>(spec.nelx) * static_cast<std::size_t>(spec.nely) * ppe;
    body(rs, offset);
  });
}

TEST(SlabMesh, CoordinatesAndIdsRestrictTheParentBitwise) {
  for (const auto deformation : {sem::Deformation::kNone, sem::Deformation::kTwist}) {
    const sem::BoxMeshSpec spec = small_spec(3, 5, deformation);
    const sem::Mesh global = sem::box_mesh(spec);
    const sem::Mesh slab =
        sem::Mesh::extract_block(global, 0, spec.nelx, 0, spec.nely, 2, 4);

    EXPECT_EQ(slab.n_elements(), 2u * 3 * 2);
    EXPECT_EQ(slab.spec().nelz, 2);
    const std::size_t node_begin = 2u * 3 * 2 * global.points_per_element();
    for (std::size_t p = 0; p < slab.n_local(); ++p) {
      ASSERT_EQ(slab.x()[p], global.x()[node_begin + p]);
      ASSERT_EQ(slab.y()[p], global.y()[node_begin + p]);
      ASSERT_EQ(slab.z()[p], global.z()[node_begin + p]);
    }

    // Ids renumber the contiguous lattice range starting at the slab's
    // first plane; boundary flags restrict the parent's (so the slab's
    // interface planes are not domain boundary).
    const std::int64_t gx = 2 * 3 + 1;
    const std::int64_t gy = 3 * 3 + 1;
    const std::int64_t id_base = gx * gy * (2 * 3);
    for (std::size_t p = 0; p < slab.n_local(); ++p) {
      ASSERT_EQ(slab.global_id()[p], global.global_id()[node_begin + p] - id_base);
    }
    EXPECT_EQ(slab.n_global(), static_cast<std::size_t>(gx * gy * (2 * 3 + 1)));
    for (std::size_t g = 0; g < slab.n_global(); ++g) {
      ASSERT_EQ(slab.boundary_flag()[g],
                global.boundary_flag()[static_cast<std::size_t>(id_base) + g]);
    }
    // An interior point of the bottom interface plane must not be flagged.
    bool plane_has_interior = false;
    for (std::int64_t j = 1; j + 1 < gy && !plane_has_interior; ++j) {
      for (std::int64_t i = 1; i + 1 < gx; ++i) {
        if (slab.boundary_flag()[static_cast<std::size_t>(j * gx + i)] == 0) {
          plane_has_interior = true;
          break;
        }
      }
    }
    EXPECT_TRUE(plane_has_interior);
  }
}

TEST(SlabMesh, RejectsBadLayerRanges) {
  const sem::Mesh global = sem::box_mesh(small_spec(2, 4));
  const auto slab = [&](int z_begin, int z_end) {
    return sem::Mesh::extract_block(global, 0, 2, 0, 3, z_begin, z_end);
  };
  EXPECT_THROW((void)slab(2, 2), std::invalid_argument);
  EXPECT_THROW((void)slab(-1, 2), std::invalid_argument);
  EXPECT_THROW((void)slab(1, 5), std::invalid_argument);
}

TEST(RankSystem, CorrectedWeightsMatchTheGlobalSystem) {
  const sem::BoxMeshSpec spec = small_spec(3, 4);
  const sem::Mesh global_mesh = sem::box_mesh(spec);
  const solver::PoissonSystem global(global_mesh);
  for (const int ranks : {1, 2, 4}) {
    with_rank_systems(spec, ranks, [&](RankSystem& rs, std::size_t offset) {
      for (std::size_t p = 0; p < rs.n_local(); ++p) {
        ASSERT_EQ(rs.inv_multiplicity()[p], global.gs().inv_multiplicity()[offset + p])
            << "rank " << rs.rank() << " dof " << p;
        ASSERT_EQ(rs.jacobi_diagonal()[p], global.jacobi_diagonal()[offset + p])
            << "rank " << rs.rank() << " dof " << p;
      }
    });
  }
}

TEST(RankSystem, TwoLevelQqtMatchesTheGlobalQqt) {
  const sem::BoxMeshSpec spec = small_spec(3, 4);
  const sem::Mesh global_mesh = sem::box_mesh(spec);
  const solver::GatherScatter global_gs(global_mesh);

  std::vector<double> u(global_gs.n_local());
  SplitMix64 rng(99);
  for (double& v : u) {
    v = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> want = u;
  global_gs.qqt(want);

  for (const int ranks : {2, 4}) {
    with_rank_systems(spec, ranks, [&](RankSystem& rs, std::size_t offset) {
      std::vector<double> local(u.begin() + static_cast<std::ptrdiff_t>(offset),
                                u.begin() + static_cast<std::ptrdiff_t>(offset) +
                                    static_cast<std::ptrdiff_t>(rs.n_local()));
      rs.qqt(std::span<double>(local.data(), local.size()));
      for (std::size_t p = 0; p < local.size(); ++p) {
        ASSERT_EQ(local[p], want[offset + p])
            << "ranks " << ranks << " rank " << rs.rank() << " dof " << p;
      }
    });
  }
}

TEST(RankSystem, DistributedApplyMatchesTheGlobalApplyBitwise) {
  const sem::BoxMeshSpec spec = small_spec(3, 4, sem::Deformation::kSine);
  const sem::Mesh global_mesh = sem::box_mesh(spec);
  solver::PoissonSystem global(global_mesh);

  // A continuous input field (equal copies of shared DOFs), like CG's p.
  aligned_vector<double> u(global.n_local());
  {
    SplitMix64 rng(5);
    std::vector<double> g(global.gs().n_global());
    for (double& v : g) {
      v = rng.uniform(-1.0, 1.0);
    }
    global.gs().gather(g, std::span<double>(u.data(), u.size()));
  }

  for (const bool fused : {true, false}) {
    global.set_fused(fused);
    aligned_vector<double> want(global.n_local());
    global.apply(std::span<const double>(u.data(), u.size()),
                 std::span<double>(want.data(), want.size()));

    for (const int ranks : {1, 2, 4}) {
      with_rank_systems(spec, ranks, [&](RankSystem& rs, std::size_t offset) {
        rs.system().set_fused(fused);
        aligned_vector<double> local_u(rs.n_local());
        aligned_vector<double> w(rs.n_local());
        for (std::size_t p = 0; p < rs.n_local(); ++p) {
          local_u[p] = u[offset + p];
        }
        rs.apply(std::span<const double>(local_u.data(), local_u.size()),
                 std::span<double>(w.data(), w.size()));
        for (std::size_t p = 0; p < rs.n_local(); ++p) {
          ASSERT_EQ(w[p], want[offset + p])
              << "fused " << fused << " ranks " << ranks << " rank " << rs.rank()
              << " dof " << p;
        }
      });
    }
  }
}

TEST(RankSystem, DistributedRhsAndDotMatchTheGlobalOnes) {
  const sem::BoxMeshSpec spec = small_spec(2, 4);
  const sem::Mesh global_mesh = sem::box_mesh(spec);
  solver::PoissonSystem global(global_mesh);
  const auto forcing = [](double x, double y, double z) {
    return std::sin(x + 0.5) * std::cos(y) + z;
  };

  const std::size_t n = global.n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  global.sample(forcing, std::span<double>(f.data(), n));
  global.assemble_rhs(std::span<const double>(f.data(), n), std::span<double>(b.data(), n));
  const double want_dot = global.weighted_dot(std::span<const double>(b.data(), n),
                                              std::span<const double>(b.data(), n));

  for (const int ranks : {1, 2, 4}) {
    with_rank_systems(spec, ranks, [&](RankSystem& rs, std::size_t offset) {
      aligned_vector<double> lf(rs.n_local());
      aligned_vector<double> lb(rs.n_local());
      rs.sample(forcing, std::span<double>(lf.data(), lf.size()));
      rs.assemble_rhs(std::span<const double>(lf.data(), lf.size()),
                      std::span<double>(lb.data(), lb.size()));
      for (std::size_t p = 0; p < rs.n_local(); ++p) {
        ASSERT_EQ(lb[p], b[offset + p])
            << "ranks " << ranks << " rank " << rs.rank() << " dof " << p;
      }
      const double got = rs.dot(std::span<const double>(lb.data(), lb.size()),
                                std::span<const double>(lb.data(), lb.size()));
      ASSERT_EQ(got, want_dot) << "ranks " << ranks << " rank " << rs.rank();
    });
  }
}

TEST(RankSystem, HaloDofsMatchThePartitionAccounting) {
  const sem::BoxMeshSpec spec = small_spec(3, 4);
  const BlockPartition part = partition_blocks(spec, 4, PartitionKind::kSlab);
  with_rank_systems(spec, 4, [&](RankSystem& rs, std::size_t /*offset*/) {
    EXPECT_EQ(rs.halo().halo_dofs(),
              part.ranks[static_cast<std::size_t>(rs.rank())].halo_doubles);
  });
}

}  // namespace
}  // namespace semfpga::runtime
