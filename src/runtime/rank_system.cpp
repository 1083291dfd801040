#include "runtime/rank_system.hpp"

#include "common/check.hpp"
#include "obs/obs.hpp"
#include "sem/dense.hpp"
#include "solver/helmholtz_system.hpp"

namespace semfpga::runtime {
namespace {

/// One system per rank, polymorphic on the operator kind.
std::unique_ptr<solver::PoissonSystem> make_rank_system(
    const sem::Mesh& mesh, const RankSystemOptions& options) {
  if (options.kind == solver::OperatorKind::kHelmholtz) {
    return std::make_unique<solver::HelmholtzSystem>(mesh, options.helmholtz_lambda);
  }
  return std::make_unique<solver::PoissonSystem>(mesh);
}

}  // namespace

RankSystem::RankSystem(const sem::Mesh& global_mesh, const BlockPartition& part,
                       int rank, Fabric& fabric, int team_threads,
                       const RankSystemOptions& options)
    : rank_(rank),
      fabric_(fabric),
      block_(part.ranks.at(static_cast<std::size_t>(rank))),
      overlap_(options.overlap),
      mesh_(sem::Mesh::extract_block(global_mesh, block_.x_begin, block_.x_end,
                                     block_.y_begin, block_.y_end, block_.z_begin,
                                     block_.z_end)),
      system_(make_rank_system(mesh_, options)),
      halo_(part, rank, mesh_, system_->gs(), fabric) {
  SEMFPGA_CHECK(part.n_ranks == fabric.n_ranks(),
                "partition and fabric disagree on the rank count");
  global_elements_ = static_cast<std::size_t>(part.spec.nelx) *
                     static_cast<std::size_t>(part.spec.nely) *
                     static_cast<std::size_t>(part.spec.nelz);
  system_->set_threads(team_threads);

  const std::size_t n = system_->n_local();
  const auto& mask = system_->mask();

  // Global element ids in local lex order: the reduction slot map, and the
  // scatter schedule the runtime uses to place this block in global fields.
  const int lnx = block_.x_end - block_.x_begin;
  const int lny = block_.y_end - block_.y_begin;
  const int lnz = block_.z_end - block_.z_begin;
  element_global_ids_.reserve(static_cast<std::size_t>(block_.n_elements));
  for (int ez = 0; ez < lnz; ++ez) {
    for (int ey = 0; ey < lny; ++ey) {
      for (int ex = 0; ex < lnx; ++ex) {
        element_global_ids_.push_back(
            (static_cast<std::int64_t>(block_.z_begin + ez) * part.spec.nely +
             (block_.y_begin + ey)) *
                part.spec.nelx +
            (block_.x_begin + ex));
      }
    }
  }

  // The overlap schedule: maximal contiguous runs of surface elements
  // (some face on a partition boundary) and interior elements, in local
  // lex order.  Element bodies are independent, so running the classes in
  // any order is bitwise identical to one sweep.
  const bool nb_xm = block_.x_begin > 0, nb_xp = block_.x_end < part.spec.nelx;
  const bool nb_ym = block_.y_begin > 0, nb_yp = block_.y_end < part.spec.nely;
  const bool nb_zm = block_.z_begin > 0, nb_zp = block_.z_end < part.spec.nelz;
  std::size_t le = 0;
  bool run_surface = false;
  std::size_t run_begin = 0;
  const auto flush = [&](std::size_t end) {
    if (end == run_begin) return;
    (run_surface ? surface_runs_ : interior_runs_).emplace_back(run_begin, end);
  };
  for (int ez = 0; ez < lnz; ++ez) {
    for (int ey = 0; ey < lny; ++ey) {
      for (int ex = 0; ex < lnx; ++ex, ++le) {
        const bool surface = (nb_xm && ex == 0) || (nb_xp && ex == lnx - 1) ||
                             (nb_ym && ey == 0) || (nb_yp && ey == lny - 1) ||
                             (nb_zm && ez == 0) || (nb_zp && ez == lnz - 1);
        if (le == 0) {
          run_surface = surface;
        } else if (surface != run_surface) {
          flush(le);
          run_begin = le;
          run_surface = surface;
        }
      }
    }
  }
  flush(le);

  // Globally corrected c weight: a field of ones through the distributed
  // gather-scatter leaves every copy holding its global copy count (exact
  // integer-valued doubles, order-independent), then invert — the
  // identical 1/m division the global GatherScatter performs.
  aligned_vector<double> mult(n);
  for (std::size_t p = 0; p < n; ++p) {
    mult[p] = 1.0;
  }
  qqt(std::span<double>(mult.data(), n));
  inv_mult_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    inv_mult_[p] = 1.0 / mult[p];
  }

  // Globally corrected Jacobi diagonal.  The raw (pre-fold) per-element
  // values are recomputed here exactly as the single-rank SystemSetup
  // builds them — the local system's post-fold diagonal cannot be used,
  // because corner/edge rows need the raw copies to replay the canonical
  // global fold.  Masked DOFs are pinned to exactly 1.0, as in the
  // single-rank constructor.
  const double lambda =
      options.kind == solver::OperatorKind::kHelmholtz ? options.helmholtz_lambda : 0.0;
  diagonal_.resize(n);
  sem::local_diagonals(system_->ref(), system_->geom(), lambda, diagonal_);
  qqt(std::span<double>(diagonal_.data(), n));
  for (std::size_t p = 0; p < n; ++p) {
    if (mask[p] == 0.0) {
      diagonal_[p] = 1.0;
    }
  }

  for (std::size_t p = 0; p < n; ++p) {
    if (mask[p] == 0.0) {
      mask_zero_.push_back(static_cast<std::int64_t>(p));
    }
  }
}

void RankSystem::apply_mask(std::span<double> w) const {
  // Multiplying the unmasked DOFs by 1.0 is a bitwise no-op, so the
  // single-rank masked apply and this surface-only pass perform the same
  // arithmetic on every DOF that changes.
  parallel_for(mask_zero_.size(), threads(), [&](std::size_t i) {
    w[static_cast<std::size_t>(mask_zero_[i])] *= 0.0;
  });
}

void RankSystem::qqt(std::span<double> local) {
  SEMFPGA_CHECK(local.size() == n_local(), "field view must cover the rank block");
  // Raw copies must leave before the local fold overwrites interface rows;
  // finish() then replaces those rows with the canonical global fold.
  halo_.post(local);
  system_->gs().qqt(local, threads());
  halo_.finish(local);
}

void RankSystem::apply_unmasked(std::span<const double> u, std::span<double> w) {
  if (fabric_.n_ranks() == 1) {
    // Single rank: the fused qqt-in-operator fast path (bitwise equal to
    // the split schedule below by the fused == split contract).
    system_->apply_unmasked(u, w);
    return;
  }
  if (overlap_ && system_->supports_range_execution()) {
    // Surface first, post, interior while the messages are in flight.
    parallel_for(surface_runs_.size(), threads(), [&](std::size_t i) {
      system_->apply_local_range(u, w, surface_runs_[i].first, surface_runs_[i].second);
    });
    halo_.post(w);
    {
      OBS_SPAN("halo.overlap");
      parallel_for(interior_runs_.size(), threads(), [&](std::size_t i) {
        system_->apply_local_range(u, w, interior_runs_[i].first,
                                   interior_runs_[i].second);
      });
    }
    system_->gs().qqt(w, threads());
    halo_.finish(w);
    return;
  }
  system_->apply_local(u, w);
  qqt(w);
}

void RankSystem::apply(std::span<const double> u, std::span<double> w) {
  if (fabric_.n_ranks() == 1) {
    system_->apply(u, w);
    return;
  }
  apply_unmasked(u, w);
  apply_mask(w);
}

void RankSystem::assemble_rhs(std::span<const double> f_at_nodes,
                              std::span<double> b) {
  const std::size_t n = n_local();
  SEMFPGA_CHECK(f_at_nodes.size() == n && b.size() == n,
                "field views must cover the rank block");
  const auto& mass = system_->geom().mass;
  for (std::size_t p = 0; p < n; ++p) {
    b[p] = mass[p] * f_at_nodes[p];
  }
  qqt(b);
  apply_mask(b);
}

void RankSystem::sample(const std::function<double(double, double, double)>& f,
                        std::span<double> out) const {
  system_->sample(f, out);
}

double RankSystem::dot(std::span<const double> a, std::span<const double> b) {
  SEMFPGA_CHECK(a.size() == n_local() && b.size() == n_local(),
                "field views must cover the rank block");
  const auto& c = inv_mult_;
  return allreduce([&](std::size_t begin, std::size_t end) {
    double acc = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      acc += a[p] * b[p] * c[p];
    }
    return acc;
  });
}

}  // namespace semfpga::runtime
