#include "fpga/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace semfpga::fpga {
namespace {

/// FP-op pipeline latency (cycles) on Stratix-10-class soft FP64; drives
/// the unpipelined baseline's serial dependence chain.
constexpr double kFpLatencyCycles = 8.0;
/// External-memory access latency in kernel cycles for the baseline's
/// narrow, non-coalesced accesses.
constexpr double kDramLatencyCycles = 40.0;
/// Conservative load/store scheduling of the non-forced II=2 pipeline
/// (Section III-C): the generated schedule runs ~2x slower than its II
/// suggests.  Calibrated against the ladder's 10 GFLOP/s stage.
constexpr double kSchedulerOverhead = 2.0;

}  // namespace

SemAccelerator::SemAccelerator(DeviceSpec device, KernelConfig config)
    : device_(std::move(device)),
      config_(config),
      report_(synthesize(device_, config_)),
      memory_(device_.memory, config_.allocation) {
  SEMFPGA_CHECK(report_.fits, "kernel does not fit on the device");
}

bool SemAccelerator::measured_calibration_active() const {
  return use_measured_ && device_.name == "Stratix 10 GX2800" &&
         config_.kind == KernelKind::kPoisson &&
         config_.allocation == MemAllocation::kBanked && config_.pad == 0 &&
         paper_table1_row(config_.degree).has_value();
}

double SemAccelerator::clock_mhz() const {
  if (measured_calibration_active()) {
    return paper_table1_row(config_.degree)->fmax_mhz;
  }
  return report_.fmax_mhz;
}

double SemAccelerator::memory_dof_rate() const {
  const model::KernelCost cost = config_cost(config_);
  if (measured_calibration_active()) {
    const double peak_dof_rate = memory_.spec().peak_bytes_per_sec() /
                                 static_cast<double>(cost.bytes_per_dof());
    return measured_memory_efficiency(config_.degree) * peak_dof_rate;
  }
  // Streams: one per load plus the store (u + per-DOF factors + w).
  const int n1d = config_.padded_n1d();
  const double burst = static_cast<double>(n1d) * n1d * n1d * 8.0;
  const int n_streams = static_cast<int>(cost.loads_per_dof + cost.writes_per_dof);
  const double eff = memory_.steady_efficiency(burst, n_streams);
  return eff * memory_.spec().peak_bytes_per_sec() /
         static_cast<double>(cost.bytes_per_dof());
}

double SemAccelerator::compute_dof_rate() const {
  const double f = clock_mhz() * 1e6;
  if (!report_.pipelined) {
    // Baseline (Section III-A): one DOF at a time through a serial FP chain
    // with per-access DRAM stalls.  3(N+1) u-reads + per-DOF factor loads
    // + 1 write.
    const int nx = config_.padded_n1d();
    const model::KernelCost cost = config_cost(config_);
    const double serial_ops = 6.0 * nx + 15.0 +
                              (config_.kind == KernelKind::kHelmholtz ? 2.0 : 0.0);
    const double chain = kFpLatencyCycles * serial_ops;
    // u is re-read 3(N+1) times (no caching); the factor streams exclude it.
    const double mem =
        (3.0 * nx + static_cast<double>(cost.loads_per_dof - 1 + cost.writes_per_dof)) *
        kDramLatencyCycles;
    return f / (chain + mem);
  }
  double per_cycle = static_cast<double>(report_.t_design) /
                     (static_cast<double>(report_.ii) * report_.arbitration_stall);
  if (!config_.force_ii1) {
    per_cycle /= kSchedulerOverhead;
  }
  return per_cycle * f;
}

double SemAccelerator::steady_dofs_per_cycle() const {
  const double rate = std::min(compute_dof_rate(), memory_dof_rate());
  return rate / (clock_mhz() * 1e6);
}

RunStats SemAccelerator::estimate(std::size_t n_elements) const {
  return estimate_impl(n_elements, /*include_overhead=*/true);
}

RunStats SemAccelerator::estimate_steady(std::size_t n_elements) const {
  return estimate_impl(n_elements, /*include_overhead=*/false);
}

RunStats SemAccelerator::estimate_impl(std::size_t n_elements,
                                       bool include_overhead) const {
  SEMFPGA_CHECK(n_elements > 0, "element count must be positive");
  const int nx = config_.n1d();
  const int nxp = config_.padded_n1d();
  const double useful_dofs =
      static_cast<double>(n_elements) * nx * nx * nx;
  const double padded_dofs =
      static_cast<double>(n_elements) * nxp * nxp * nxp;
  // Padding dilutes the useful rate by the volume ratio.
  const double dilution = useful_dofs / padded_dofs;

  const double compute = compute_dof_rate() * dilution;
  const double memory = memory_dof_rate() * dilution;
  const double steady = std::min(compute, memory);

  RunStats stats;
  stats.clock_mhz = clock_mhz();
  stats.bound = compute <= memory ? RunBound::kCompute : RunBound::kMemory;
  const double overhead =
      include_overhead ? memory_.spec().invocation_overhead_us * 1e-6 : 0.0;
  stats.seconds = overhead + useful_dofs / steady;
  stats.cycles = stats.seconds * stats.clock_mhz * 1e6;
  stats.dof_rate = useful_dofs / stats.seconds;
  stats.dofs_per_cycle = useful_dofs / stats.cycles;

  // FLOPs and traffic are counted at the *unpadded* degree for the
  // configured kernel kind.
  const model::KernelCost useful_cost =
      config_.kind == KernelKind::kHelmholtz ? model::helmholtz_cost(config_.degree)
                                             : model::poisson_cost(config_.degree);
  const double flops = static_cast<double>(useful_cost.flops_per_dof()) * useful_dofs;
  stats.gflops = flops / stats.seconds / 1e9;
  stats.bytes_transferred =
      padded_dofs * static_cast<double>(useful_cost.bytes_per_dof());
  stats.effective_bandwidth_gbs = stats.bytes_transferred / stats.seconds / 1e9;

  stats.power_w = power_.estimate_w(report_, stats.clock_mhz);
  stats.energy_j = stats.power_w * stats.seconds;
  stats.gflops_per_w = stats.gflops / stats.power_w;
  return stats;
}

RunStats SemAccelerator::run(const kernels::HelmholtzArgs& args) const {
  args.validate();
  SEMFPGA_CHECK(config_.kind == KernelKind::kHelmholtz,
                "this accelerator was synthesized for the Poisson kernel");
  SEMFPGA_CHECK(config_.pad == 0, "padding is not supported for the BK5 kernel");
  SEMFPGA_CHECK(args.ax.n1d == config_.n1d(),
                "operand size does not match the synthesized kernel degree");
  kernels::helmholtz_reference(args);
  return estimate(args.ax.n_elements);
}

RunStats SemAccelerator::run(const kernels::AxArgs& args) const {
  args.validate();
  SEMFPGA_CHECK(config_.kind == KernelKind::kPoisson,
                "this accelerator was synthesized for the Helmholtz kernel");
  SEMFPGA_CHECK(args.n1d == config_.n1d(),
                "operand size does not match the synthesized kernel degree");

  if (config_.pad == 0) {
    kernels::ax_reference(args);
    return estimate(args.n_elements);
  }

  // Host-side padding (Section III-E): block-extend D (original matrix in
  // the top-left block, zeros elsewhere) and zero-pad u and gxyz.  The
  // padded kernel then reproduces the unpadded result exactly on the
  // original nodes: padded gxyz rows are zero, so padded shur/shus/shut
  // vanish, and the block D never mixes padded and real nodes.
  const int nx = config_.n1d();
  const int nxp = config_.padded_n1d();
  const std::size_t ppe = static_cast<std::size_t>(nx) * nx * nx;
  const std::size_t ppep = static_cast<std::size_t>(nxp) * nxp * nxp;

  std::vector<double> up(args.n_elements * ppep, 0.0);
  std::vector<double> wp(args.n_elements * ppep, 0.0);
  std::vector<double> gp(args.n_elements * ppep * sem::kGeomComponents, 0.0);
  std::vector<double> dxp(static_cast<std::size_t>(nxp) * nxp, 0.0);
  std::vector<double> dxtp(static_cast<std::size_t>(nxp) * nxp, 0.0);

  auto pad_index = [nxp](int i, int j, int k) {
    return static_cast<std::size_t>(i) +
           static_cast<std::size_t>(nxp) * (static_cast<std::size_t>(j) +
                                            static_cast<std::size_t>(nxp) * k);
  };
  for (int a = 0; a < nx; ++a) {
    for (int b = 0; b < nx; ++b) {
      dxp[static_cast<std::size_t>(a) * nxp + b] = args.dx[static_cast<std::size_t>(a) * nx + b];
      dxtp[static_cast<std::size_t>(a) * nxp + b] =
          args.dxt[static_cast<std::size_t>(a) * nx + b];
    }
  }
  for (std::size_t e = 0; e < args.n_elements; ++e) {
    for (int k = 0; k < nx; ++k) {
      for (int j = 0; j < nx; ++j) {
        for (int i = 0; i < nx; ++i) {
          const std::size_t ijk = static_cast<std::size_t>(i) +
                                  static_cast<std::size_t>(nx) * j +
                                  static_cast<std::size_t>(nx) * nx * k;
          const std::size_t ijkp = pad_index(i, j, k);
          up[e * ppep + ijkp] = args.u[e * ppe + ijk];
          for (int c = 0; c < sem::kGeomComponents; ++c) {
            gp[sem::geom_index(ppep, e, c, ijkp)] = args.g[sem::geom_index(ppe, e, c, ijk)];
          }
        }
      }
    }
  }

  kernels::AxArgs padded;
  padded.u = up;
  padded.w = wp;
  padded.g = gp;
  padded.dx = dxp;
  padded.dxt = dxtp;
  padded.n1d = nxp;
  padded.n_elements = args.n_elements;
  kernels::ax_reference(padded);

  for (std::size_t e = 0; e < args.n_elements; ++e) {
    for (int k = 0; k < nx; ++k) {
      for (int j = 0; j < nx; ++j) {
        for (int i = 0; i < nx; ++i) {
          const std::size_t dst = e * ppe + static_cast<std::size_t>(i) +
                                  static_cast<std::size_t>(nx) * j +
                                  static_cast<std::size_t>(nx) * nx * k;
          args.w[dst] = wp[e * ppep + pad_index(i, j, k)];
        }
      }
    }
  }
  return estimate(args.n_elements);
}

}  // namespace semfpga::fpga
