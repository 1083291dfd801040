#pragma once
/// \file partition.hpp
/// First-class structured-grid partitions for the distributed tier.
///
/// One partition path for every consumer — the SPMD runtime, the
/// network-charging backend and the analytic cluster model.  A rank grid
/// over the three element axes:
///
///   * kSlab    — (1, 1, R): z-slabs, one contiguous range of element
///                layers per rank,
///   * kPencil  — (px, py, 1): x/y pencils, full z extent per rank,
///   * kBlock3d — (px, py, pz): full 3D blocks.
///
/// Every axis is split by the remainder-first rule: `extent` element layers
/// over `parts` blocks give each block `extent / parts` layers, and the
/// first `extent % parts` blocks one more (10 layers over 4 ranks: 3, 3, 2,
/// 2).  Rank numbering is x-fastest: rank = (bz*py + by)*px + bx, which
/// degenerates to rank == bz for slabs.
///
/// The per-rank halo accounting is exact for the raw-copy exchange protocol
/// of runtime::BlockHalo: a rank sends, to each of its <= 26 grid
/// neighbours, one value per (shared lattice row, own adjacent element)
/// pair.  For a grid partition that count has a closed form — the product
/// over axes of m*(degree+1) where the two blocks span the same element
/// range on that axis (m = own element count), and 1 where the ranges abut
/// — and RankBlock::halo_doubles records the per-exchange total.
/// tests/runtime/test_partition_blocks.cpp pins this closed form against
/// the doubles BlockHalo actually transfers.

#include <cstdint>
#include <string>
#include <vector>

#include "sem/mesh.hpp"

namespace semfpga::runtime {

/// Which axes the rank grid partitions.
enum class PartitionKind {
  kSlab,     ///< z only
  kPencil,   ///< x and y, full z per rank
  kBlock3d,  ///< all three axes
};

/// "slab" | "pencil" | "3d".
[[nodiscard]] const char* partition_kind_name(PartitionKind kind) noexcept;

/// Parses "slab" | "pencil" | "3d"; throws std::invalid_argument for
/// anything else, listing the known names.
[[nodiscard]] PartitionKind parse_partition_kind(const std::string& name);

/// One rank's element block: half-open element-index ranges per axis.
struct RankBlock {
  int rank = 0;
  int x_begin = 0, x_end = 0;
  int y_begin = 0, y_end = 0;
  int z_begin = 0, z_end = 0;
  std::int64_t n_elements = 0;
  /// Elements with no face on an inter-rank boundary — the ones the
  /// overlapped operator may compute while halo messages are in flight.
  std::int64_t n_interior_elements = 0;
  /// Total doubles this rank sends (== receives) per halo exchange, summed
  /// over its neighbours (raw-copy protocol, closed form above).
  std::int64_t halo_doubles = 0;
  int n_neighbors = 0;
};

/// A rank grid (px, py, pz) over the global element box.
struct BlockPartition {
  sem::BoxMeshSpec spec;
  PartitionKind kind = PartitionKind::kSlab;
  int n_ranks = 1;
  int px = 1, py = 1, pz = 1;  ///< rank = (bz*py + by)*px + bx
  std::vector<RankBlock> ranks;

  [[nodiscard]] std::int64_t max_elements() const noexcept;
  [[nodiscard]] std::int64_t max_halo_doubles() const noexcept;
  [[nodiscard]] std::int64_t max_halo_bytes() const noexcept;
};

/// The grid shape a rank count factors into when no box constrains it —
/// slab (1,1,R), pencil near-square, 3d near-cube.  Weak-scaling drivers
/// use this to grow the global box so every rank holds the same block.
struct GridShape {
  int px = 1, py = 1, pz = 1;
};
[[nodiscard]] GridShape ideal_grid(int n_ranks, PartitionKind kind);

/// Splits the global element box into an n_ranks grid of the given kind.
/// Among the factorisations of n_ranks that fit the box (parts <= extent on
/// every axis) it picks the one minimising, in order: worst-rank element
/// count, worst-rank halo surface, block aspect spread.  Throws
/// std::invalid_argument when no factorisation fits (e.g. slab with
/// n_ranks > nelz, preserving the historical error).
[[nodiscard]] BlockPartition partition_blocks(const sem::BoxMeshSpec& spec,
                                              int n_ranks, PartitionKind kind);

}  // namespace semfpga::runtime
