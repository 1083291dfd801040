#include "arch/cluster_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace semfpga::arch {
namespace {

/// One rank count through the partition-aware model: the worst rank's
/// kernel + non-overlapped halo, plus the global allreduce tree.
ProjectionPoint project_one(const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
                            const NetworkSpec& network, int ranks,
                            runtime::PartitionKind partition, bool overlap) {
  const runtime::BlockPartition part =
      runtime::partition_blocks(spec, ranks, partition);

  ProjectionPoint pt;
  pt.ranks = ranks;
  pt.grid = runtime::GridShape{part.px, part.py, part.pz};
  double worst = -1.0;
  for (const runtime::RankBlock& rb : part.ranks) {
    const double ax = kernel(rb.n_elements);
    double halo = 0.0;
    if (rb.n_neighbors > 0) {
      // One latency per neighbour message plus the rank's total halo
      // bytes over the link — the terms NetworkChargingBackend charges.
      halo = static_cast<double>(rb.n_neighbors) * network.latency_us * 1e-6 +
             static_cast<double>(rb.halo_doubles) * 8.0 /
                 (network.bandwidth_gbs * 1e9);
    }
    const double interior =
        rb.n_elements == 0 ? 0.0
                           : static_cast<double>(rb.n_interior_elements) /
                                 static_cast<double>(rb.n_elements);
    const double budget = overlap ? ax * interior : 0.0;
    const double charged = std::max(0.0, halo - budget);
    // Ties happen whenever overlap hides every rank's halo (equal blocks,
    // equal kernel time): break them toward the largest full halo so the
    // reported overlap credit is the interior rank's, not a corner's.
    if (ax + charged > worst ||
        (ax + charged == worst && halo > pt.halo_full_seconds)) {
      worst = ax + charged;
      pt.ax_seconds = ax;
      pt.halo_full_seconds = halo;
      pt.halo_seconds = charged;
      pt.overlap_saved_seconds = halo - charged;
      pt.max_elements = rb.n_elements;
    }
  }
  if (ranks > 1) {
    const double hops = std::ceil(std::log2(static_cast<double>(ranks)));
    pt.allreduce_seconds = 2.0 * 2.0 * hops * network.latency_us * 1e-6;
  }
  pt.iteration_seconds = pt.ax_seconds + pt.halo_seconds + pt.allreduce_seconds;
  return pt;
}

}  // namespace

std::vector<ProjectionPoint> projected_strong_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap) {
  SEMFPGA_CHECK(static_cast<bool>(kernel), "kernel time function must be callable");
  SEMFPGA_CHECK(network.latency_us >= 0.0 && network.bandwidth_gbs > 0.0,
                "network parameters must be sane");
  std::vector<ProjectionPoint> points;
  double t1 = 0.0;
  for (const int ranks : rank_counts) {
    ProjectionPoint pt = project_one(spec, kernel, network, ranks, partition, overlap);
    if (points.empty() && ranks == 1) {
      t1 = pt.iteration_seconds;
    }
    if (t1 > 0.0) {
      pt.speedup = t1 / pt.iteration_seconds;
      pt.efficiency = pt.speedup / ranks;
    }
    points.push_back(pt);
  }
  return points;
}

std::vector<ProjectionPoint> projected_weak_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap) {
  SEMFPGA_CHECK(static_cast<bool>(kernel), "kernel time function must be callable");
  SEMFPGA_CHECK(network.latency_us >= 0.0 && network.bandwidth_gbs > 0.0,
                "network parameters must be sane");
  std::vector<ProjectionPoint> points;
  double t1 = 0.0;
  for (const int ranks : rank_counts) {
    // Tile the per-rank box by the ideal rank grid: every rank keeps a
    // constant block, so all efficiency loss is network-attributed.
    const runtime::GridShape grid = runtime::ideal_grid(ranks, partition);
    sem::BoxMeshSpec grown = spec;
    grown.nelx = spec.nelx * grid.px;
    grown.nely = spec.nely * grid.py;
    grown.nelz = spec.nelz * grid.pz;
    ProjectionPoint pt = project_one(grown, kernel, network, ranks, partition, overlap);
    if (points.empty() && ranks == 1) {
      t1 = pt.iteration_seconds;
    }
    if (t1 > 0.0) {
      // Weak scaling: perfect growth keeps the iteration time flat.
      pt.speedup = t1 / pt.iteration_seconds;
      pt.efficiency = pt.speedup;
    }
    points.push_back(pt);
  }
  return points;
}

}  // namespace semfpga::arch
