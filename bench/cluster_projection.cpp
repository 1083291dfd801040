/// Partition-aware cluster projection: modeled strong/weak scaling of one
/// CG iteration to 1024 ranks, with and without halo/compute overlap, for
/// any partition kind (slab, pencil or 3D blocks).
///
/// The model (arch::projected_strong_scaling / projected_weak_scaling)
/// charges exactly the terms backend::NetworkChargingBackend charges at
/// runtime: per rank one latency per grid neighbour plus its halo bytes
/// over the link, minus the interior-compute overlap budget, plus two
/// log-tree ordered allreduces.  Before projecting, the bench validates
/// the runtime it models: at small rank counts the in-process solve must
/// be bitwise identical across every partition kind × overlap setting ×
/// rank count — the determinism contract that makes the projection's
/// "same numerics, different network" claim meaningful.
///
/// Usage: cluster_projection [--degree 5] [--nelxy 16] [--nelz 16]
///                           [--weak-nel 8] [--max-ranks 1024]
///                           [--partition 3d] [--network eth-100g]
///                           [--validate-ranks 4] [--iters 25]
///                           [--json BENCH_projection.json] [--csv]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arch/cluster_model.hpp"
#include "arch/network.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fpga/accelerator.hpp"
#include "obs/obs.hpp"
#include "runtime/distributed_cg.hpp"

using namespace semfpga;

namespace {

/// One reference solve of the validation problem; returns the solved x and
/// the CG scalars for bitwise comparison.
runtime::DistributedSolveResult validation_solve(const sem::BoxMeshSpec& spec,
                                                 int ranks,
                                                 runtime::PartitionKind partition,
                                                 bool overlap, int iters) {
  runtime::DistributedSolveConfig config;
  config.spec = spec;
  config.ranks = ranks;
  config.threads = ranks;  // one thread per rank team
  config.partition = partition;
  config.overlap = overlap;
  config.cg.max_iterations = iters;
  config.cg.tolerance = 0.0;
  config.forcing = [](double x, double y, double z) {
    return std::sin(x) * std::cos(y) + z;
  };
  return runtime::solve_distributed_poisson(config);
}

/// Bitwise-compares a candidate solve against the single-rank reference.
bool bitwise_equal(const runtime::DistributedSolveResult& a,
                   const runtime::DistributedSolveResult& b) {
  return a.cg.iterations == b.cg.iterations &&
         std::memcmp(&a.cg.final_residual, &b.cg.final_residual, sizeof(double)) == 0 &&
         a.x.size() == b.x.size() &&
         std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(double)) == 0;
}

void print_points(const char* title, const std::vector<arch::ProjectionPoint>& off,
                  const std::vector<arch::ProjectionPoint>& on, bool weak, bool csv) {
  Table table(title);
  table.set_header({"ranks", "grid", "Ax (us)", "halo full (us)", "halo chg (us)",
                    "saved (us)", "allreduce (us)",
                    weak ? "eff (no ovl)" : "speedup (no ovl)",
                    weak ? "eff (ovl)" : "speedup (ovl)"});
  for (std::size_t i = 0; i < off.size(); ++i) {
    const arch::ProjectionPoint& p = off[i];
    const arch::ProjectionPoint& q = on[i];
    const std::string grid = std::to_string(p.grid.px) + "x" +
                             std::to_string(p.grid.py) + "x" +
                             std::to_string(p.grid.pz);
    table.add_row({Table::fmt_int(p.ranks), grid, Table::fmt(p.ax_seconds * 1e6, 1),
                   Table::fmt(p.halo_full_seconds * 1e6, 1),
                   Table::fmt(p.halo_seconds * 1e6, 1),
                   Table::fmt(q.overlap_saved_seconds * 1e6, 1),
                   Table::fmt(p.allreduce_seconds * 1e6, 1),
                   weak ? Table::fmt_pct(p.efficiency, 1) : Table::fmt(p.speedup, 2),
                   weak ? Table::fmt_pct(q.efficiency, 1) : Table::fmt(q.speedup, 2)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print_text(std::cout);
  }
  std::cout << '\n';
}

void json_points(std::FILE* f, const std::vector<arch::ProjectionPoint>& points,
                 bool overlap, bool last) {
  std::fprintf(f, "    {\"overlap\": %s, \"points\": [\n", overlap ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const arch::ProjectionPoint& p = points[i];
    std::fprintf(f,
                 "      {\"ranks\": %d, \"grid\": [%d, %d, %d], "
                 "\"max_elements\": %lld, \"ax_us\": %.6g, \"halo_full_us\": %.6g, "
                 "\"halo_charged_us\": %.6g, \"overlap_saved_us\": %.6g, "
                 "\"allreduce_us\": %.6g, \"iteration_us\": %.6g, "
                 "\"speedup\": %.6g, \"efficiency\": %.6g}%s\n",
                 p.ranks, p.grid.px, p.grid.py, p.grid.pz,
                 static_cast<long long>(p.max_elements), p.ax_seconds * 1e6,
                 p.halo_full_seconds * 1e6, p.halo_seconds * 1e6,
                 p.overlap_saved_seconds * 1e6, p.allreduce_seconds * 1e6,
                 p.iteration_seconds * 1e6, p.speedup, p.efficiency,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "    ]}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, std::vector<FlagSpec>{
      {"degree", FlagSpec::Kind::kInt, "5", "polynomial degree N"},
      {"nelxy", FlagSpec::Kind::kInt, "16",
       "strong-scaling box: elements per x/y direction"},
      {"nelz", FlagSpec::Kind::kInt, "16",
       "strong-scaling box: elements in z"},
      {"weak-nel", FlagSpec::Kind::kInt, "8",
       "weak-scaling per-rank box: elements per direction"},
      {"max-ranks", FlagSpec::Kind::kInt, "1024",
       "largest projected rank count (powers of two from 1)"},
      {"partition", FlagSpec::Kind::kString, "3d",
       "rank partition of the box: slab|pencil|3d"},
      {"network", FlagSpec::Kind::kString, "eth-100g",
       "modeled interconnect: preset (" + arch::known_networks_joined() +
           ") or LAT_US:BW_GBS"},
      {"validate-ranks", FlagSpec::Kind::kInt, "4",
       "validate bitwise identity on the in-process runtime up to this many "
       "ranks (0 = skip)"},
      {"iters", FlagSpec::Kind::kInt, "25", "CG iterations per validation solve"},
      {"json", FlagSpec::Kind::kString, "BENCH_projection.json",
       "write results as JSON"},
      {"csv", FlagSpec::Kind::kBool, "", "emit CSV instead of tables"},
      {"obs", FlagSpec::Kind::kString, "off", obs::kCliHelp},
  });
  if (const auto ec = cli.early_exit(
          "cluster_projection",
          "Partition-aware modeled strong/weak scaling to 1024 ranks with and "
          "without halo/compute overlap, validated bitwise against the "
          "in-process runtime at small rank counts.")) {
    return *ec;
  }
  if (!obs::configure_from_flag(cli.get("obs", "off"), "cluster_projection")) {
    return 2;
  }

  const int degree = static_cast<int>(cli.get_int("degree", 5));
  const int nelxy = static_cast<int>(cli.get_int("nelxy", 16));
  const int nelz = static_cast<int>(cli.get_int("nelz", 16));
  const int weak_nel = static_cast<int>(cli.get_int("weak-nel", 8));
  const int max_ranks = static_cast<int>(cli.get_int("max-ranks", 1024));
  const int validate_ranks = static_cast<int>(cli.get_int("validate-ranks", 4));
  const int iters = static_cast<int>(cli.get_int("iters", 25));
  const bool csv = cli.has("csv");
  SEMFPGA_CHECK(degree >= 1 && nelxy >= 1 && nelz >= 1 && weak_nel >= 1 &&
                    max_ranks >= 1 && iters >= 1 && validate_ranks >= 0,
                "all size flags must be positive");

  const runtime::PartitionKind partition =
      runtime::parse_partition_kind(cli.get("partition", "3d"));
  const arch::NetworkSpec network =
      arch::parse_network_flag(cli.get("network", "eth-100g"));

  std::vector<int> rank_counts;
  for (int r = 1; r <= max_ranks; r *= 2) {
    rank_counts.push_back(r);
  }

  // --- Bitwise validation on the in-process runtime ---------------------
  // The projection claims "same numerics at any scale"; prove it where the
  // runtime can actually execute: every partition kind × overlap setting ×
  // small rank count must reproduce the single-rank solution bit for bit.
  bool validated = false;
  int validated_configs = 0;
  if (validate_ranks > 0) {
    sem::BoxMeshSpec vspec;
    vspec.degree = 3;
    vspec.nelx = vspec.nely = 4;
    vspec.nelz = 4;
    const runtime::DistributedSolveResult reference = validation_solve(
        vspec, 1, runtime::PartitionKind::kSlab, /*overlap=*/false, iters);
    validated = true;
    for (int ranks = 1; ranks <= validate_ranks; ranks *= 2) {
      for (const runtime::PartitionKind kind :
           {runtime::PartitionKind::kSlab, runtime::PartitionKind::kPencil,
            runtime::PartitionKind::kBlock3d}) {
        for (const bool overlap : {false, true}) {
          const runtime::DistributedSolveResult got =
              validation_solve(vspec, ranks, kind, overlap, iters);
          ++validated_configs;
          if (!bitwise_equal(reference, got)) {
            std::fprintf(stderr,
                         "BITWISE MISMATCH: ranks=%d partition=%s overlap=%d "
                         "diverges from the single-rank solve\n",
                         ranks, runtime::partition_kind_name(kind), overlap ? 1 : 0);
            validated = false;
          }
        }
      }
    }
    if (!validated) {
      return 1;
    }
    std::cout << "Validation: " << validated_configs
              << " partition x overlap x rank configurations bitwise identical "
                 "to the single-rank solve\n\n";
  }

  // --- Modeled projection ----------------------------------------------
  const fpga::SemAccelerator acc(fpga::stratix10_gx2800(),
                                 fpga::KernelConfig::banked(degree));
  const arch::DeviceKernelTime kernel = [&acc](std::int64_t n) {
    return acc.estimate(static_cast<std::size_t>(n)).seconds;
  };

  sem::BoxMeshSpec strong_spec;
  strong_spec.degree = degree;
  strong_spec.nelx = strong_spec.nely = nelxy;
  strong_spec.nelz = nelz;

  sem::BoxMeshSpec weak_spec;
  weak_spec.degree = degree;
  weak_spec.nelx = weak_spec.nely = weak_spec.nelz = weak_nel;

  const auto strong_off = arch::projected_strong_scaling(
      strong_spec, kernel, network, rank_counts, partition, /*overlap=*/false);
  const auto strong_on = arch::projected_strong_scaling(
      strong_spec, kernel, network, rank_counts, partition, /*overlap=*/true);
  const auto weak_off = arch::projected_weak_scaling(
      weak_spec, kernel, network, rank_counts, partition, /*overlap=*/false);
  const auto weak_on = arch::projected_weak_scaling(
      weak_spec, kernel, network, rank_counts, partition, /*overlap=*/true);

  print_points("Projected strong scaling — Stratix 10 GX2800 cluster", strong_off,
               strong_on, /*weak=*/false, csv);
  print_points("Projected weak scaling — constant per-rank block", weak_off,
               weak_on, /*weak=*/true, csv);

  // How much of the weak-scaling efficiency gap does overlap recover at
  // the largest rank count?
  const arch::ProjectionPoint& woff = weak_off.back();
  const arch::ProjectionPoint& won = weak_on.back();
  const double gap = 1.0 - woff.efficiency;
  const double recovered = won.efficiency - woff.efficiency;
  if (!csv) {
    std::printf("At %d ranks the weak-scaling efficiency gap is %.1f%%; "
                "halo/compute overlap recovers %.1f%% (%.0f%% of the gap).\n",
                woff.ranks, gap * 100.0, recovered * 100.0,
                gap > 0.0 ? recovered / gap * 100.0 : 0.0);
  }

  if (cli.has("json")) {
    const std::string path = cli.get("json", "BENCH_projection.json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"problem\": {\"degree\": %d, \"strong_box\": [%d, %d, %d], "
                    "\"weak_per_rank_box\": [%d, %d, %d]},\n",
                 degree, nelxy, nelxy, nelz, weak_nel, weak_nel, weak_nel);
    std::fprintf(f, "  \"partition\": \"%s\",\n",
                 runtime::partition_kind_name(partition));
    std::fprintf(f, "  \"network\": {\"latency_us\": %g, \"bandwidth_gbs\": %g},\n",
                 network.latency_us, network.bandwidth_gbs);
    std::fprintf(f, "  \"device\": \"Stratix 10 GX2800 (banked)\",\n");
    std::fprintf(f,
                 "  \"validation\": {\"ran\": %s, \"configs\": %d, "
                 "\"bitwise_identical\": %s},\n",
                 validate_ranks > 0 ? "true" : "false", validated_configs,
                 validated ? "true" : "false");
    std::fprintf(f, "  \"strong_scaling\": [\n");
    json_points(f, strong_off, /*overlap=*/false, /*last=*/false);
    json_points(f, strong_on, /*overlap=*/true, /*last=*/true);
    std::fprintf(f, "  ],\n  \"weak_scaling\": [\n");
    json_points(f, weak_off, /*overlap=*/false, /*last=*/false);
    json_points(f, weak_on, /*overlap=*/true, /*last=*/true);
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"overlap_recovery_at_max_ranks\": {\"ranks\": %d, "
                 "\"efficiency_gap\": %.6g, \"recovered\": %.6g}\n",
                 woff.ranks, gap, recovered);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
  }
  return obs::finalize();
}
