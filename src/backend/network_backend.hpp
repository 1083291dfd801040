#pragma once
/// \file network_backend.hpp
/// Network-charging Backend decorator — the cluster-network analogue of
/// FpgaSimBackend's device charging.
///
/// Wraps any Backend and charges arch::NetworkSpec terms into a modeled
/// timeline on top of whatever the inner backend already charges:
///
///  * operator applies and standalone qqt() — one halo exchange: a
///    latency per grid neighbour plus the rank's halo bytes over the
///    link.  When the runtime overlaps (apply paths only), the interior
///    fraction of the inner device's per-apply time hides halo time, and
///    only the positive remainder is charged; the hidden part is recorded
///    as network_overlap_saved_seconds.
///  * reduce() — one ordered allreduce: 2 * ceil(log2 ranks) hop
///    latencies (fan-in + fan-out tree).
///
/// Charges land in the inner backend's own ledger when it has one
/// (Backend::mutable_timeline — the distributed fpga-sim tier), so
/// total_seconds() is the full device+network iteration time; otherwise
/// the decorator keeps its own ledger and publishes it at solve_end.
/// Numerics pass through untouched — decorating changes no bit of any
/// solve.

#include <cstdint>
#include <memory>
#include <string>

#include "arch/network.hpp"
#include "backend/backend.hpp"
#include "backend/fpga_sim_backend.hpp"

namespace semfpga::backend {

/// Cluster-network terms of one rank, precomputed for the decorator.
struct NetworkChargeSpec {
  arch::NetworkSpec network;
  int n_ranks = 1;
  int n_neighbors = 0;             ///< grid neighbours of this rank
  std::int64_t halo_doubles = 0;   ///< doubles sent (== received) per exchange
  double interior_fraction = 0.0;  ///< compute available to hide the halo
  bool overlap = false;            ///< runtime overlaps halo and interior
};

class NetworkChargingBackend final : public Backend {
 public:
  NetworkChargingBackend(std::unique_ptr<Backend> inner, const NetworkChargeSpec& spec);

  [[nodiscard]] const char* name() const noexcept override { return name_.c_str(); }
  [[nodiscard]] std::size_t n_local() const noexcept override {
    return inner_->n_local();
  }
  [[nodiscard]] int threads() const noexcept override { return inner_->threads(); }
  [[nodiscard]] bool collective() const noexcept override {
    return inner_->collective();
  }
  [[nodiscard]] int rank() const noexcept override { return inner_->rank(); }

  [[nodiscard]] const aligned_vector<double>& jacobi_diagonal() const override {
    return inner_->jacobi_diagonal();
  }
  [[nodiscard]] const aligned_vector<double>& inv_multiplicity() const override {
    return inner_->inv_multiplicity();
  }
  [[nodiscard]] const aligned_vector<double>& mask() const override {
    return inner_->mask();
  }

  void apply(std::span<const double> u, std::span<double> w) override;
  void apply_unmasked(std::span<const double> u, std::span<double> w) override;
  void qqt(std::span<double> local) override;
  void apply_mask(std::span<double> w) override { inner_->apply_mask(w); }

  double reduce(PassCost cost, ReduceBody body) override;
  void vector_pass(PassCost cost, PassBody body) override {
    inner_->vector_pass(cost, body);
  }
  void solve_begin() override { inner_->solve_begin(); }
  void solve_end() override;

  [[nodiscard]] std::int64_t operator_flops() const override {
    return inner_->operator_flops();
  }
  [[nodiscard]] std::int64_t global_dofs() const override {
    return inner_->global_dofs();
  }
  [[nodiscard]] std::size_t n_global() const override { return inner_->n_global(); }
  void gather(std::span<const double> global, std::span<double> local) const override {
    inner_->gather(global, local);
  }

  [[nodiscard]] const FpgaTimeline* timeline() const noexcept override;
  [[nodiscard]] FpgaTimeline* mutable_timeline() noexcept override;

  [[nodiscard]] const Backend& inner() const noexcept { return *inner_; }

 private:
  /// The ledger charges land in: the inner backend's when it keeps one,
  /// else the decorator's own.
  [[nodiscard]] FpgaTimeline& ledger() noexcept;
  /// One halo exchange; `use_budget` lets overlapped applies hide halo
  /// time behind the modeled interior compute.
  void charge_halo(bool use_budget);

  std::unique_ptr<Backend> inner_;
  NetworkChargeSpec spec_;
  std::string name_;
  double halo_full_seconds_ = 0.0;  ///< per-exchange charge before overlap
  double allreduce_seconds_ = 0.0;  ///< per-reduce tree latency
  FpgaTimeline timeline_;           ///< own ledger (inner has none)
};

}  // namespace semfpga::backend
