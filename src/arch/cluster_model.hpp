#pragma once
/// \file cluster_model.hpp
/// Partition-aware scaling model for clusters of accelerators running the
/// SEM CG solve — an extension of the paper's single-device study to its
/// own deployment context (Noctua is an FPGA cluster; Nek5000 runs at
/// scale).
///
/// Per CG iteration each rank performs one Ax on its block of a
/// runtime::partition_blocks partition, the halo exchange with its grid
/// neighbours, and two global reductions.  The model composes a per-device
/// kernel-time function with a latency/bandwidth network (log2 tree
/// allreduce) and reports time, speedup and parallel efficiency.

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/network.hpp"
#include "runtime/partition.hpp"

namespace semfpga::arch {

/// Seconds one device needs for an Ax apply on `n_elements` elements.
using DeviceKernelTime = std::function<double(std::int64_t n_elements)>;

/// One point of the partition-aware cluster projection (the model behind
/// bench/cluster_projection): per CG iteration the worst rank pays its
/// kernel time plus the non-overlapped remainder of its halo — one latency
/// per grid neighbour plus its halo bytes over the link — and every rank
/// pays two log-tree ordered allreduces.  With `overlap`, the interior
/// fraction of the kernel time hides halo time (the runtime's
/// post-surface/compute-interior schedule), and the credit is reported.
struct ProjectionPoint {
  int ranks = 1;
  runtime::GridShape grid;         ///< rank grid the partition chose
  std::int64_t max_elements = 0;   ///< busiest rank's element count
  double ax_seconds = 0.0;         ///< worst rank's kernel time
  double halo_full_seconds = 0.0;  ///< worst rank's halo before overlap
  double halo_seconds = 0.0;       ///< charged (non-overlapped) halo time
  double overlap_saved_seconds = 0.0;  ///< halo hidden behind compute
  double allreduce_seconds = 0.0;  ///< two dot-product reductions
  double iteration_seconds = 0.0;
  double speedup = 1.0;   ///< vs the 1-rank iteration time
  double efficiency = 1.0;
};

/// Strong scaling: the fixed global box split by partition_blocks(kind)
/// over each rank count.  rank_counts should start at 1 so speedup and
/// efficiency are anchored.
[[nodiscard]] std::vector<ProjectionPoint> projected_strong_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap);

/// Weak scaling: `spec` is the per-rank box; the global box tiles it by
/// the partition's ideal rank grid, so every rank keeps a constant block
/// and efficiency = t(1)/t(r) attributes all loss to the halo and the
/// deepening allreduce tree.
[[nodiscard]] std::vector<ProjectionPoint> projected_weak_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap);

}  // namespace semfpga::arch
