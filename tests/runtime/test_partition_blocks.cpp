/// runtime::partition_blocks — the grid partition behind the SPMD runtime
/// and the cluster model: the remainder-first slab split, prime rank
/// counts, single-element-deep axes, and the closed-form halo accounting
/// against the BlockHalo the runtime actually builds.

#include <numeric>
#include <stdexcept>

#include <gtest/gtest.h>

#include "runtime/partition.hpp"
#include "runtime/rank_system.hpp"
#include "runtime/spmd.hpp"

namespace semfpga::runtime {
namespace {

sem::BoxMeshSpec spec_of(int degree, int nelx, int nely, int nelz) {
  sem::BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = nelx;
  spec.nely = nely;
  spec.nelz = nelz;
  return spec;
}

std::size_t global_elements(const sem::BoxMeshSpec& spec) {
  return static_cast<std::size_t>(spec.nelx) * static_cast<std::size_t>(spec.nely) *
         static_cast<std::size_t>(spec.nelz);
}

TEST(PartitionBlocks, SlabKindSplitsLayersRemainderFirst) {
  // 10 layers over 4 ranks: 3, 3, 2, 2 — each layer covered exactly once,
  // every rank spanning the full x/y extent.
  const sem::BoxMeshSpec spec = spec_of(3, 5, 4, 10);
  const BlockPartition part = partition_blocks(spec, 4, PartitionKind::kSlab);
  ASSERT_EQ(part.px, 1);
  ASSERT_EQ(part.py, 1);
  ASSERT_EQ(part.pz, 4);
  ASSERT_EQ(part.ranks.size(), 4u);
  const int expected_layers[] = {3, 3, 2, 2};
  int z = 0;
  std::int64_t total = 0;
  for (int r = 0; r < 4; ++r) {
    const RankBlock& b = part.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(b.rank, r);
    EXPECT_EQ(b.z_begin, z) << "rank " << r;
    EXPECT_EQ(b.z_end - b.z_begin, expected_layers[r]) << "rank " << r;
    EXPECT_EQ(b.x_begin, 0);
    EXPECT_EQ(b.x_end, spec.nelx);
    EXPECT_EQ(b.y_begin, 0);
    EXPECT_EQ(b.y_end, spec.nely);
    EXPECT_EQ(b.n_elements, 5LL * 4 * expected_layers[r]);
    z = b.z_end;
    total += b.n_elements;
  }
  EXPECT_EQ(z, spec.nelz);
  EXPECT_EQ(total, static_cast<std::int64_t>(global_elements(spec)));
  EXPECT_EQ(part.max_elements(), 3LL * 5 * 4);
}

TEST(PartitionBlocks, SlabRemainderLayersAlwaysLandOnTheFirstRanks) {
  // Exhaustive small sweep: every (layers, ranks) pair keeps slab sizes
  // within one layer of each other, larger slabs first.
  for (int nelz = 1; nelz <= 9; ++nelz) {
    for (int ranks = 1; ranks <= nelz; ++ranks) {
      const BlockPartition part =
          partition_blocks(spec_of(2, 2, 2, nelz), ranks, PartitionKind::kSlab);
      ASSERT_EQ(static_cast<int>(part.ranks.size()), ranks);
      int covered = 0;
      for (int r = 0; r < ranks; ++r) {
        const RankBlock& b = part.ranks[static_cast<std::size_t>(r)];
        const int layers = b.z_end - b.z_begin;
        const int expected = nelz / ranks + (r < nelz % ranks ? 1 : 0);
        ASSERT_EQ(b.z_begin, covered) << "nelz " << nelz << " ranks " << ranks
                                      << " rank " << r;
        ASSERT_EQ(layers, expected) << "nelz " << nelz << " ranks " << ranks
                                    << " rank " << r;
        covered += layers;
      }
      ASSERT_EQ(covered, nelz);
    }
  }
}

TEST(PartitionBlocks, PrimeRankCountsCoverTheBoxDisjointly) {
  for (const PartitionKind kind : {PartitionKind::kPencil, PartitionKind::kBlock3d}) {
    for (const int ranks : {3, 5, 7}) {
      const sem::BoxMeshSpec spec = spec_of(2, 8, 8, 4);
      const BlockPartition part = partition_blocks(spec, ranks, kind);
      ASSERT_EQ(part.ranks.size(), static_cast<std::size_t>(ranks));
      std::int64_t covered = 0;
      for (const RankBlock& rb : part.ranks) {
        ASSERT_GT(rb.n_elements, 0) << "empty rank in " << partition_kind_name(kind)
                                    << " at " << ranks << " ranks";
        ASSERT_EQ(rb.n_elements,
                  static_cast<std::int64_t>(rb.x_end - rb.x_begin) *
                      (rb.y_end - rb.y_begin) * (rb.z_end - rb.z_begin));
        covered += rb.n_elements;
      }
      ASSERT_EQ(covered, static_cast<std::int64_t>(global_elements(spec)));
    }
  }
}

TEST(PartitionBlocks, SingleElementDeepAxesStayUnsplit) {
  // A 1-element-deep axis can host at most one block layer; the chosen
  // factorisation must put all ranks on the other axes.
  const BlockPartition column =
      partition_blocks(spec_of(3, 1, 1, 8), 4, PartitionKind::kBlock3d);
  EXPECT_EQ(column.px, 1);
  EXPECT_EQ(column.py, 1);
  EXPECT_EQ(column.pz, 4);

  const BlockPartition sheet =
      partition_blocks(spec_of(3, 1, 4, 2), 2, PartitionKind::kPencil);
  EXPECT_EQ(sheet.px, 1);
  EXPECT_EQ(sheet.py, 2);
}

TEST(PartitionBlocks, RejectsInfeasibleSplits) {
  // More slab ranks than z element layers cannot factorise.
  try {
    (void)partition_blocks(spec_of(3, 2, 2, 4), 5, PartitionKind::kSlab);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot split more ranks than z element"),
              std::string::npos);
  }
  // A prime rank count larger than every axis cannot fit 3D blocks either.
  EXPECT_THROW((void)partition_blocks(spec_of(2, 2, 2, 2), 11, PartitionKind::kBlock3d),
               std::invalid_argument);
  EXPECT_THROW((void)partition_blocks(spec_of(2, 2, 2, 2), 0, PartitionKind::kSlab),
               std::invalid_argument);
}

/// The closed-form halo accounting in RankBlock must equal what the
/// runtime's BlockHalo actually schedules — neighbour count and the summed
/// message doubles, per rank, for every partition kind.  Prime rank counts
/// and a single-element-deep axis exercise uneven grids and edge rows.
TEST(PartitionBlocks, ClosedFormHaloMatchesBlockHaloSchedules) {
  struct Case {
    sem::BoxMeshSpec spec;
    int ranks;
    PartitionKind kind;
  };
  const Case cases[] = {
      {spec_of(2, 4, 4, 4), 3, PartitionKind::kPencil},
      {spec_of(2, 4, 4, 4), 8, PartitionKind::kBlock3d},
      {spec_of(3, 4, 1, 4), 4, PartitionKind::kBlock3d},  // 1-deep y axis
      {spec_of(2, 5, 3, 2), 5, PartitionKind::kPencil},   // prime, uneven
      {spec_of(3, 2, 3, 7), 4, PartitionKind::kSlab},     // uneven slabs
  };
  for (const Case& c : cases) {
    const sem::Mesh global = sem::box_mesh(c.spec);
    const BlockPartition part = partition_blocks(c.spec, c.ranks, c.kind);
    InProcessFabric fabric(c.ranks, global_elements(c.spec));
    spmd_run(fabric, 1, [&](const RankEnv& env) {
      RankSystem rs(global, part, env.rank, fabric, env.team_threads);
      const RankBlock& rb = part.ranks[static_cast<std::size_t>(env.rank)];
      EXPECT_EQ(rs.halo().halo_dofs(), rb.halo_doubles)
          << partition_kind_name(c.kind) << " ranks=" << c.ranks
          << " rank=" << env.rank;
      EXPECT_EQ(static_cast<int>(rs.halo().neighbor_ranks().size()), rb.n_neighbors)
          << partition_kind_name(c.kind) << " ranks=" << c.ranks
          << " rank=" << env.rank;
    });
  }
}

TEST(PartitionBlocks, InteriorElementsNeverExceedTheBlock) {
  const BlockPartition part =
      partition_blocks(spec_of(2, 4, 4, 4), 8, PartitionKind::kBlock3d);
  for (const RankBlock& rb : part.ranks) {
    EXPECT_GE(rb.n_interior_elements, 0);
    EXPECT_LT(rb.n_interior_elements, rb.n_elements);  // every block has surface
    // 2x2x2 block with three inter-rank faces: exactly one interior element.
    EXPECT_EQ(rb.n_interior_elements, 1);
  }
}

TEST(PartitionBlocks, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_partition_kind("slab"), PartitionKind::kSlab);
  EXPECT_EQ(parse_partition_kind("pencil"), PartitionKind::kPencil);
  EXPECT_EQ(parse_partition_kind("3d"), PartitionKind::kBlock3d);
  EXPECT_THROW((void)parse_partition_kind("cube"), std::invalid_argument);
  EXPECT_STREQ(partition_kind_name(PartitionKind::kPencil), "pencil");
}

}  // namespace
}  // namespace semfpga::runtime
