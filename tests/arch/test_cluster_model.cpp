#include "arch/cluster_model.hpp"

#include <gtest/gtest.h>

namespace semfpga::arch {
namespace {

using runtime::PartitionKind;

constexpr PartitionKind kKinds[] = {PartitionKind::kSlab, PartitionKind::kPencil,
                                    PartitionKind::kBlock3d};

sem::BoxMeshSpec big_spec() {
  sem::BoxMeshSpec spec;
  spec.degree = 7;
  spec.nelx = spec.nely = 16;
  spec.nelz = 32;
  return spec;
}

/// A simple linear-time device: t = overhead + n * per_element.
DeviceKernelTime linear_kernel(double overhead_s, double per_element_s) {
  return [overhead_s, per_element_s](std::int64_t n) {
    return overhead_s + per_element_s * static_cast<double>(n);
  };
}

std::vector<ProjectionPoint> strong(const sem::BoxMeshSpec& spec,
                                    const DeviceKernelTime& kernel,
                                    const NetworkSpec& network,
                                    const std::vector<int>& rank_counts,
                                    PartitionKind kind) {
  return projected_strong_scaling(spec, kernel, network, rank_counts, kind,
                                  /*overlap=*/false);
}

std::vector<ProjectionPoint> weak(const sem::BoxMeshSpec& spec,
                                  const DeviceKernelTime& kernel,
                                  const NetworkSpec& network,
                                  const std::vector<int>& rank_counts,
                                  PartitionKind kind) {
  return projected_weak_scaling(spec, kernel, network, rank_counts, kind,
                                /*overlap=*/false);
}

TEST(ClusterModel, PerfectScalingWithoutNetworkCosts) {
  NetworkSpec free_net;
  free_net.latency_us = 0.0;
  free_net.bandwidth_gbs = 1e9;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points =
        strong(big_spec(), linear_kernel(0.0, 1e-6), free_net, {1, 2, 4, 8}, kind);
    for (const ProjectionPoint& p : points) {
      EXPECT_NEAR(p.speedup, static_cast<double>(p.ranks), 1e-6) << p.ranks;
      EXPECT_NEAR(p.efficiency, 1.0, 1e-6) << p.ranks;
    }
  }
}

TEST(ClusterModel, SpeedupIsBoundedByRanks) {
  const NetworkSpec net;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points = strong(big_spec(), linear_kernel(10e-6, 1e-6), net,
                               {1, 2, 4, 8, 16, 32}, kind);
    for (const ProjectionPoint& p : points) {
      EXPECT_LE(p.speedup, static_cast<double>(p.ranks) + 1e-9) << p.ranks;
      EXPECT_GT(p.speedup, 0.0);
    }
  }
}

TEST(ClusterModel, EfficiencyDecreasesWithRanks) {
  const NetworkSpec net;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points = strong(big_spec(), linear_kernel(10e-6, 1e-6), net,
                               {1, 2, 4, 8, 16, 32}, kind);
    for (std::size_t i = 1; i < points.size(); ++i) {
      EXPECT_LE(points[i].efficiency, points[i - 1].efficiency + 1e-9)
          << points[i].ranks;
    }
  }
}

TEST(ClusterModel, LatencyFloorsTheIterationTime) {
  // With a very fast device, the iteration time at scale approaches the
  // network terms alone.
  NetworkSpec net;
  net.latency_us = 5.0;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points = strong(big_spec(), linear_kernel(0.0, 1e-9), net, {1, 32}, kind);
    const ProjectionPoint& p32 = points.back();
    EXPECT_GT(p32.allreduce_seconds + p32.halo_seconds, 0.9 * p32.iteration_seconds);
  }
}

TEST(ClusterModel, HaloBytesScaleWithTheInterfaceArea) {
  const NetworkSpec net;
  sem::BoxMeshSpec small = big_spec();
  small.nelx = small.nely = 4;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto big = strong(big_spec(), linear_kernel(0.0, 1e-6), net, {1, 4}, kind);
    const auto little = strong(small, linear_kernel(0.0, 1e-6), net, {1, 4}, kind);
    // A larger cross-section -> larger halo time.
    EXPECT_GT(big.back().halo_seconds, little.back().halo_seconds);
  }
}

TEST(ClusterModel, SingleRankHasNoNetworkTerms) {
  const NetworkSpec net;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points = strong(big_spec(), linear_kernel(1e-5, 1e-6), net, {1}, kind);
    EXPECT_DOUBLE_EQ(points[0].halo_seconds, 0.0);
    EXPECT_DOUBLE_EQ(points[0].allreduce_seconds, 0.0);
  }
}

TEST(ClusterModel, WeakScalingIsFlatWithoutNetworkCosts) {
  // Constant block per rank + linear kernel + free network: the iteration
  // time never changes, so weak efficiency stays at 1.
  NetworkSpec free_net;
  free_net.latency_us = 0.0;
  free_net.bandwidth_gbs = 1e9;
  sem::BoxMeshSpec per_rank = big_spec();
  per_rank.nelz = 4;  // layers each rank keeps
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points =
        weak(per_rank, linear_kernel(0.0, 1e-6), free_net, {1, 2, 4, 8}, kind);
    for (const ProjectionPoint& p : points) {
      EXPECT_NEAR(p.efficiency, 1.0, 1e-9) << p.ranks;
      EXPECT_NEAR(p.iteration_seconds, points[0].iteration_seconds, 1e-12) << p.ranks;
    }
  }
}

TEST(ClusterModel, WeakScalingEfficiencyDecaysWithTheAllreduceDepth) {
  const NetworkSpec net;  // real latency
  sem::BoxMeshSpec per_rank = big_spec();
  per_rank.nelz = 2;
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto points =
        weak(per_rank, linear_kernel(0.0, 1e-6), net, {1, 2, 4, 8, 16}, kind);
    for (std::size_t i = 1; i < points.size(); ++i) {
      EXPECT_LT(points[i].efficiency, 1.0) << points[i].ranks;
      EXPECT_LE(points[i].efficiency, points[i - 1].efficiency + 1e-12)
          << points[i].ranks;
      // The per-rank block, and with it the kernel term, never changes.
      EXPECT_DOUBLE_EQ(points[i].ax_seconds, points[0].ax_seconds);
    }
  }
}

TEST(ClusterModel, OverlapOnlyHidesHaloTime) {
  // Overlap moves halo time into overlap_saved_seconds and never adds
  // time; without overlap nothing is hidden.
  const NetworkSpec net;
  const std::vector<int> ranks = {1, 2, 4, 8, 16, 32};
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(runtime::partition_kind_name(kind));
    const auto plain = projected_strong_scaling(big_spec(), linear_kernel(0.0, 1e-7),
                                                net, ranks, kind, /*overlap=*/false);
    const auto hidden = projected_strong_scaling(big_spec(), linear_kernel(0.0, 1e-7),
                                                 net, ranks, kind, /*overlap=*/true);
    ASSERT_EQ(plain.size(), hidden.size());
    bool saved_any = false;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_DOUBLE_EQ(plain[i].halo_seconds, plain[i].halo_full_seconds) << ranks[i];
      EXPECT_EQ(plain[i].overlap_saved_seconds, 0.0) << ranks[i];
      EXPECT_DOUBLE_EQ(hidden[i].halo_seconds + hidden[i].overlap_saved_seconds,
                       hidden[i].halo_full_seconds)
          << ranks[i];
      EXPECT_LE(hidden[i].iteration_seconds, plain[i].iteration_seconds) << ranks[i];
      saved_any = saved_any || hidden[i].overlap_saved_seconds > 0.0;
    }
    EXPECT_TRUE(saved_any);
  }
}

TEST(ClusterModel, RejectsBadInputs) {
  const NetworkSpec net;
  EXPECT_THROW((void)strong(big_spec(), DeviceKernelTime{}, net, {1}, PartitionKind::kSlab),
               std::invalid_argument);
  NetworkSpec bad = net;
  bad.bandwidth_gbs = 0.0;
  EXPECT_THROW((void)strong(big_spec(), linear_kernel(0.0, 1e-6), bad, {1},
                            PartitionKind::kSlab),
               std::invalid_argument);
}

}  // namespace
}  // namespace semfpga::arch
