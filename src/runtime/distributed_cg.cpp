#include "runtime/distributed_cg.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "arch/network.hpp"
#include "backend/distributed_backend.hpp"
#include "backend/network_backend.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "runtime/fault.hpp"
#include "runtime/latency_fabric.hpp"
#include "runtime/partition.hpp"

namespace semfpga::runtime {

/// The loop itself lives in solver::solve_cg — one implementation for every
/// execution tier.  Every scalar (alpha, beta, residual norms) comes out of
/// the backend's deterministic allreduce, so all ranks step through
/// identical iterates and no rank ever diverges from the single-rank
/// trajectory.
solver::CgResult distributed_cg(backend::Backend& backend, std::span<const double> b,
                                std::span<double> x,
                                const solver::CgOptions& options) {
  SEMFPGA_CHECK(backend.collective(),
                "distributed_cg needs a collective (rank) backend");
  // Teams rule: the rank's team is the only thread knob here —
  // options.threads is documented as ignored so a caller cannot
  // oversubscribe N rank teams with a stale single-rank setting.
  return solver::solve_cg(backend, b, x, options);
}

solver::CgResult distributed_cg(RankSystem& rs, std::span<const double> b,
                                std::span<double> x,
                                const solver::CgOptions& options) {
  backend::DistributedBackend backend(rs);
  return distributed_cg(backend, b, x, options);
}

namespace {

/// Scatter a rank's block-local vector into the global element-local
/// vector.  Pencil and 3D blocks are not contiguous element ranges of the
/// global lex order, so rank slices can no longer alias the output the way
/// the old slab driver did — each rank owns a disjoint element *set*
/// instead, addressed per element.
void scatter_elements(std::span<const double> local, std::span<double> global,
                      std::span<const std::int64_t> element_ids, std::size_t ppe) {
  for (std::size_t e = 0; e < element_ids.size(); ++e) {
    std::copy(local.begin() + static_cast<std::ptrdiff_t>(e * ppe),
              local.begin() + static_cast<std::ptrdiff_t>((e + 1) * ppe),
              global.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(element_ids[e]) * ppe));
  }
}

/// Inverse of scatter_elements: pull this rank's elements out of the
/// global vector (resilient restarts resume from the committed global x).
void gather_elements(std::span<const double> global, std::span<double> local,
                     std::span<const std::int64_t> element_ids, std::size_t ppe) {
  for (std::size_t e = 0; e < element_ids.size(); ++e) {
    const auto src = global.begin() + static_cast<std::ptrdiff_t>(
                                          static_cast<std::size_t>(element_ids[e]) * ppe);
    std::copy(src, src + static_cast<std::ptrdiff_t>(ppe),
              local.begin() + static_cast<std::ptrdiff_t>(e * ppe));
  }
}

/// Resolve the config's network string once, outside the rank bodies.
[[nodiscard]] std::optional<arch::NetworkSpec> resolve_network(
    const std::string& flag) {
  if (flag.empty()) {
    return std::nullopt;
  }
  return arch::parse_network_flag(flag);
}

/// One rank's execution backend: the registry backend, wrapped in the
/// network-charging decorator when a modeled interconnect is configured.
/// The charge spec comes from the rank's own halo (neighbour count and
/// exact message doubles), so ledger terms match what the partition-aware
/// projection model computes for this rank.
[[nodiscard]] std::unique_ptr<backend::Backend> make_rank_backend(
    const DistributedSolveConfig& config, RankSystem& rs, int ranks,
    const std::optional<arch::NetworkSpec>& network) {
  std::unique_ptr<backend::Backend> be =
      backend::make_rank(config.backend, rs, config.backend_options);
  if (network.has_value()) {
    backend::NetworkChargeSpec ncs;
    ncs.network = *network;
    ncs.n_ranks = ranks;
    ncs.n_neighbors = static_cast<int>(rs.halo().neighbor_ranks().size());
    ncs.halo_doubles = rs.halo().halo_dofs();
    ncs.interior_fraction = rs.interior_fraction();
    ncs.overlap = config.overlap;
    be = std::make_unique<backend::NetworkChargingBackend>(std::move(be), ncs);
  }
  return be;
}

}  // namespace

DistributedSolveResult solve_distributed_poisson(const DistributedSolveConfig& config) {
  SEMFPGA_CHECK(config.ranks >= 1, "need at least one rank");
  SEMFPGA_CHECK(static_cast<bool>(config.forcing), "forcing must be callable");
  backend::require_known_rank(config.backend);

  const sem::Mesh global_mesh = sem::box_mesh(config.spec);
  const BlockPartition part =
      partition_blocks(config.spec, config.ranks, config.partition);
  const std::size_t global_elements = static_cast<std::size_t>(config.spec.nelx) *
                                      static_cast<std::size_t>(config.spec.nely) *
                                      static_cast<std::size_t>(config.spec.nelz);
  InProcessFabric fabric(config.ranks, global_elements,
                         config.fabric_timeout_seconds);
  const std::optional<arch::NetworkSpec> network = resolve_network(config.network);

  DistributedSolveResult out;
  out.ranks = config.ranks;
  out.threads_per_rank = team_threads(config.threads, config.ranks);
  out.n_local = global_mesh.n_local();
  out.x.assign(out.n_local, 0.0);
  out.halo_dofs = part.max_halo_doubles();

  const std::size_t ppe = global_mesh.points_per_element();
  spmd_run(fabric, config.threads, [&](const RankEnv& env) {
    const RankSystemOptions system_options{config.operator_kind,
                                           config.helmholtz_lambda, config.overlap};
    RankSystem rs(global_mesh, part, env.rank, fabric, env.team_threads,
                  system_options);
    rs.system().set_ax_variant(config.ax_variant);
    rs.system().set_fused(config.fused);

    const std::size_t n = rs.n_local();
    aligned_vector<double> f(n);
    aligned_vector<double> b(n);
    rs.sample(config.forcing, std::span<double>(f.data(), n));
    rs.assemble_rhs(std::span<const double>(f.data(), n), std::span<double>(b.data(), n));

    // Each rank executes through its own backend instance, resolved from
    // the rank-backend registry — "fpga-sim" charges modeled time for this
    // rank's block on its own modeled device, and custom registered
    // backends plug into the same seam.
    const std::unique_ptr<backend::Backend> be =
        make_rank_backend(config, rs, config.ranks, network);

    aligned_vector<double> xl(n, 0.0);
    std::span<double> x(xl.data(), n);

    fabric.barrier(env.rank);
    Timer timer;
    const solver::CgResult cg =
        distributed_cg(*be, std::span<const double>(b.data(), n), x, config.cg);
    fabric.barrier(env.rank);
    // Ranks own disjoint element sets; the spmd join orders these writes
    // before the driver reads out.x.
    scatter_elements(x, std::span<double>(out.x.data(), out.n_local),
                     std::span<const std::int64_t>(rs.element_global_ids()), ppe);
    if (env.rank == 0) {
      out.solve_seconds = timer.seconds();
      out.cg = cg;
      if (const backend::FpgaTimeline* t = be->timeline()) {
        out.modeled_seconds = t->total_seconds();
      }
    }
  });
  return out;
}

namespace {

/// Globally consistent checkpoint of the gathered solution vector.
///
/// Consistency problem: InProcessFabric::barrier throws for *every* rank
/// once poisoned — even a rank whose barrier semantically completed — so
/// a single-buffer "write slices, barrier, done" checkpoint could be torn
/// by a crash landing mid-commit.  The fix is a commit protocol over two
/// alternating buffers keyed on the checkpoint iteration:
///
///   1. every rank scatters its disjoint elements into buffer (it / K) % 2,
///   2. barrier — all elements visible,
///   3. rank 0 alone publishes the {buffer, iteration} marker,
///   4. barrier — nobody overwrites a buffer a peer still reads.
///
/// A crash before step 3 leaves the marker on the previous, fully written
/// buffer; a crash after step 3 means the new buffer was already complete
/// (step 2 proved every slice landed).  Either way the marker always
/// names a consistent global x.  The driver reads the committed state
/// after spmd_run returns (thread join orders the reads; no atomics
/// needed, and the element sets are disjoint — TSan-clean).
class GlobalCheckpoint {
 public:
  GlobalCheckpoint(std::size_t n_global, int checkpoint_every)
      : every_(checkpoint_every > 0 ? checkpoint_every : 1),
        buffers_{aligned_vector<double>(n_global, 0.0),
                 aligned_vector<double>(n_global, 0.0)} {}

  /// Collective commit of one rank's elements at global iteration
  /// `iteration`.
  void commit(Fabric& fabric, int rank, int iteration,
              std::span<const double> slice,
              std::span<const std::int64_t> element_ids, std::size_t ppe) {
    OBS_SPAN("checkpoint.commit");
    const std::size_t which =
        static_cast<std::size_t>(iteration / every_) % buffers_.size();
    scatter_elements(slice,
                     std::span<double>(buffers_[which].data(), buffers_[which].size()),
                     element_ids, ppe);
    fabric.barrier(rank);
    if (rank == 0) {
      committed_which_ = which;
      committed_iteration_ = iteration;
    }
    fabric.barrier(rank);
  }

  [[nodiscard]] int committed_iteration() const noexcept {
    return committed_iteration_;
  }
  [[nodiscard]] const aligned_vector<double>& committed_x() const {
    return buffers_[committed_which_];
  }

 private:
  int every_;
  std::array<aligned_vector<double>, 2> buffers_;
  std::size_t committed_which_ = 0;
  int committed_iteration_ = 0;  ///< 0 = the initial guess (buffer 0 zeros)
};

}  // namespace

ResilientSolveResult solve_distributed_resilient(const ResilientSolveConfig& config) {
  const DistributedSolveConfig& base = config.base;
  SEMFPGA_CHECK(base.ranks >= 1, "need at least one rank");
  SEMFPGA_CHECK(static_cast<bool>(base.forcing), "forcing must be callable");
  SEMFPGA_CHECK(config.checkpoint_every >= 0, "checkpoint_every must be >= 0");
  SEMFPGA_CHECK(config.max_retries >= 0, "max_retries must be >= 0");
  SEMFPGA_CHECK(config.min_ranks >= 1 && config.min_ranks <= base.ranks,
                "min_ranks must lie in [1, ranks]");
  backend::require_known_rank(base.backend);

  const sem::Mesh global_mesh = sem::box_mesh(config.base.spec);
  const std::size_t n_global = global_mesh.n_local();
  const std::size_t ppe = global_mesh.points_per_element();
  const std::size_t global_elements = static_cast<std::size_t>(base.spec.nelx) *
                                      static_cast<std::size_t>(base.spec.nely) *
                                      static_cast<std::size_t>(base.spec.nelz);
  const std::optional<arch::NetworkSpec> network = resolve_network(base.network);

  FaultInjector injector(parse_fault_plan(config.faults));
  // An unscripted stall must outlive every peer's deadline, or it would
  // degrade into an undetected delay.  The fabric ends the hold as soon as
  // the peers have timed out, so the cap only bounds a peer that never
  // arrives; it leaves a late peer many deadlines of slack.
  injector.set_default_stall_seconds(
      base.fabric_timeout_seconds > 0.0 ? base.fabric_timeout_seconds * 20.0 + 1.0 : 0.5);

  ResilientSolveResult out;
  out.solve.n_local = n_global;
  out.solve.x.assign(n_global, 0.0);
  solver::ResilienceReport& report = out.report;

  // The driver-level recovery state: the best globally committed solution
  // and how many iterations produced it.
  aligned_vector<double> best_x(n_global, 0.0);
  int iterations_done = 0;
  int ranks = base.ranks;
  int retries = 0;

  const auto merge_injector_events = [&report, &injector] {
    for (const FaultEvent& event : injector.events()) {
      report.events.push_back(event.to_string());
    }
  };

  for (;;) {
    const BlockPartition part = partition_blocks(base.spec, ranks, base.partition);
    InProcessFabric fabric(ranks, global_elements, base.fabric_timeout_seconds);
    fabric.set_fault_injector(injector.empty() ? nullptr : &injector);
    injector.begin_attempt(ranks, iterations_done);

    // Scripted delay@ faults are link latency, not injector sleeps: the
    // LatencyFabric decorator charges them at the send seam, the same seam
    // a modeled interconnect would use (satellite: fault.cpp no longer
    // sleeps inline).  Fault-free solves keep the undecorated fabric so
    // the bitwise-vs-plain contract is trivially overhead-free.
    LatencyFabric latency(fabric);
    if (!injector.empty()) {
      latency.add_policy(std::make_unique<FaultDelayPolicy>(injector));
    }
    Fabric& fab = injector.empty() ? static_cast<Fabric&>(fabric) : latency;

    GlobalCheckpoint gck(n_global, config.checkpoint_every);
    std::copy(best_x.begin(), best_x.end(), out.solve.x.begin());

    // Restore the driver recovery state from whatever this attempt managed
    // to commit before failing.  gck is attempt-local, so a fresh attempt
    // with no commits keeps the previous best.
    const auto restore_committed = [&] {
      if (gck.committed_iteration() > iterations_done) {
        iterations_done = gck.committed_iteration();
        std::copy(gck.committed_x().begin(), gck.committed_x().end(), best_x.begin());
        ++report.checkpoints_restored;
      }
    };

    solver::CgResult attempt_cg;
    solver::ResilienceReport attempt_report;
    double attempt_modeled = 0.0;
    try {
      spmd_run(fab, base.threads, [&](const RankEnv& env) {
        const RankSystemOptions system_options{base.operator_kind,
                                               base.helmholtz_lambda, base.overlap};
        RankSystem rs(global_mesh, part, env.rank, *env.fabric, env.team_threads,
                      system_options);
        rs.system().set_ax_variant(base.ax_variant);
        rs.system().set_fused(base.fused);

        const std::size_t n = rs.n_local();
        const std::span<const std::int64_t> ids(rs.element_global_ids());
        aligned_vector<double> f(n);
        aligned_vector<double> b(n);
        rs.sample(base.forcing, std::span<double>(f.data(), n));
        rs.assemble_rhs(std::span<const double>(f.data(), n),
                        std::span<double>(b.data(), n));
        const std::unique_ptr<backend::Backend> be =
            make_rank_backend(base, rs, ranks, network);

        // Resume from the committed global x (best_x was copied into
        // out.solve.x above; a fresh solve starts from zeros).
        aligned_vector<double> xl(n, 0.0);
        gather_elements(std::span<const double>(out.solve.x.data(), n_global),
                        std::span<double>(xl.data(), n), ids, ppe);
        std::span<double> x(xl.data(), n);

        solver::ResilientCgOptions rc;
        rc.cg = base.cg;
        // A restart resumes mid-trajectory: only the remaining budget.
        rc.cg.max_iterations = std::max(base.cg.max_iterations - iterations_done, 0);
        rc.checkpoint_every = config.checkpoint_every;
        rc.max_retries = config.max_retries;
        rc.retry_backoff_seconds = config.retry_backoff_seconds;
        rc.divergence_factor = config.divergence_factor;
        rc.stagnation_window = config.stagnation_window;
        rc.iteration_offset = iterations_done;
        rc.injector = injector.empty() ? nullptr : &injector;
        rc.on_checkpoint = [&](const solver::CgCheckpoint& ckpt) {
          gck.commit(*env.fabric, env.rank, iterations_done + ckpt.iteration,
                     std::span<const double>(ckpt.x.data(), ckpt.x.size()), ids, ppe);
        };

        env.fabric->barrier(env.rank);
        Timer timer;
        const solver::ResilientCgResult solved = solver::solve_cg_resilient(
            *be, std::span<const double>(b.data(), n), x, rc);
        env.fabric->barrier(env.rank);
        scatter_elements(x, std::span<double>(out.solve.x.data(), n_global), ids,
                         ppe);
        if (env.rank == 0) {
          out.solve.solve_seconds += timer.seconds();
          attempt_cg = solved.cg;
          attempt_report = solved.report;
          if (const backend::FpgaTimeline* t = be->timeline()) {
            attempt_modeled = t->total_seconds();
          }
        }
      });
    } catch (const InjectedRankFailure& crash) {
      restore_committed();
      report.events.push_back(std::string("rank loss: ") + crash.what());
      if (ranks > config.min_ranks) {
        // Shrink-and-resolve: re-partition over the survivors and re-enter
        // from the last committed checkpoint.  Budgeted by min_ranks, not
        // max_retries — each shrink makes forward progress in team size.
        --ranks;
        ++report.degraded_ranks;
        report.events.push_back("shrank to " + std::to_string(ranks) +
                                " ranks; resuming from iteration " +
                                std::to_string(iterations_done));
        continue;
      }
      if (retries < config.max_retries) {
        ++retries;
        ++report.retries;
        report.events.push_back("at the min_ranks floor; retrying in place from "
                                "iteration " +
                                std::to_string(iterations_done));
        continue;
      }
      merge_injector_events();
      throw solver::ResilienceExhaustedError(
          std::string("rank loss exhausted the recovery budget: ") + crash.what(),
          std::move(report));
    } catch (const FabricTimeoutError& timeout) {
      restore_committed();
      ++report.timeouts;
      report.events.push_back(std::string("fabric timeout: ") + timeout.what());
      if (retries < config.max_retries) {
        ++retries;
        ++report.retries;
        report.events.push_back("retrying from iteration " +
                                std::to_string(iterations_done));
        continue;
      }
      merge_injector_events();
      throw solver::ResilienceExhaustedError(
          std::string("fabric timeouts exhausted the retry budget: ") +
              timeout.what(),
          std::move(report));
    } catch (const solver::ResilienceExhaustedError& exhausted) {
      // The per-rank numerical budget ran out inside the solve; fold the
      // rank-level report into the driver's and rethrow.
      const solver::ResilienceReport& inner = exhausted.report();
      report.checkpoints_taken += inner.checkpoints_taken;
      report.checkpoints_restored += inner.checkpoints_restored;
      report.numerical_faults += inner.numerical_faults;
      report.retries += inner.retries;
      report.events.insert(report.events.end(), inner.events.begin(),
                           inner.events.end());
      merge_injector_events();
      throw solver::ResilienceExhaustedError(exhausted.what(), std::move(report));
    }

    // Success: fold the final attempt's rank-level report into the
    // driver's (failed attempts already folded what they salvaged).
    report.checkpoints_taken += attempt_report.checkpoints_taken;
    report.checkpoints_restored += attempt_report.checkpoints_restored;
    report.numerical_faults += attempt_report.numerical_faults;
    report.retries += attempt_report.retries;
    report.events.insert(report.events.end(), attempt_report.events.begin(),
                         attempt_report.events.end());
    merge_injector_events();

    out.solve.cg = attempt_cg;
    out.solve.cg.iterations += iterations_done;
    out.solve.ranks = ranks;
    out.solve.threads_per_rank = team_threads(base.threads, ranks);
    out.solve.halo_dofs = part.max_halo_doubles();
    out.solve.modeled_seconds = attempt_modeled;
    out.final_ranks = ranks;
    return out;
  }
}

}  // namespace semfpga::runtime
