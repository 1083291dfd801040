#pragma once
/// \file decorators.hpp
/// The benchmark's tracing seams: a backend::Backend decorator and a
/// runtime::Fabric decorator that time every call into the layer below and
/// forward it unchanged.  Forwarding touches no numerics, so a decorated
/// solve is bitwise the undecorated one; the traced run checks that.
///
/// Thread model: one TimedBackend per rank, used only by that rank's
/// thread.  TimedFabric keeps one totals slot per rank and each Fabric call
/// is charged to the slot of the rank that makes it (the sender of send,
/// the receiver of recv), so rank threads never write the same slot.  Read
/// the totals after the rank team has joined.

#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "bench.hpp"
#include "runtime/fabric.hpp"

namespace perfbench {

/// Time and call counts of the three CG-facing backend passes.
struct BackendTotals {
  double apply_s = 0.0;
  double reduce_s = 0.0;
  double vector_pass_s = 0.0;
  std::int64_t apply_calls = 0;
  std::int64_t reduce_calls = 0;
  std::int64_t vector_pass_calls = 0;
};

/// Times apply / reduce / vector_pass of `inner` (not owned).
class TimedBackend final : public semfpga::backend::Backend {
 public:
  explicit TimedBackend(semfpga::backend::Backend& inner) : inner_(inner) {}

  [[nodiscard]] const BackendTotals& totals() const noexcept { return totals_; }
  void reset() noexcept { totals_ = {}; }

  [[nodiscard]] const char* name() const noexcept override { return inner_.name(); }
  [[nodiscard]] std::size_t n_local() const noexcept override { return inner_.n_local(); }
  [[nodiscard]] int threads() const noexcept override { return inner_.threads(); }
  [[nodiscard]] bool collective() const noexcept override { return inner_.collective(); }
  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] const semfpga::aligned_vector<double>& jacobi_diagonal() const override {
    return inner_.jacobi_diagonal();
  }
  [[nodiscard]] const semfpga::aligned_vector<double>& inv_multiplicity() const override {
    return inner_.inv_multiplicity();
  }
  [[nodiscard]] const semfpga::aligned_vector<double>& mask() const override {
    return inner_.mask();
  }

  void apply(std::span<const double> u, std::span<double> w) override {
    const double t0 = now_s();
    inner_.apply(u, w);
    totals_.apply_s += now_s() - t0;
    ++totals_.apply_calls;
  }
  void apply_unmasked(std::span<const double> u, std::span<double> w) override {
    const double t0 = now_s();
    inner_.apply_unmasked(u, w);
    totals_.apply_s += now_s() - t0;
    ++totals_.apply_calls;
  }
  void qqt(std::span<double> local) override { inner_.qqt(local); }
  void apply_mask(std::span<double> w) override { inner_.apply_mask(w); }

  double reduce(semfpga::backend::PassCost cost, semfpga::backend::ReduceBody body) override {
    const double t0 = now_s();
    const double sum = inner_.reduce(cost, body);
    totals_.reduce_s += now_s() - t0;
    ++totals_.reduce_calls;
    return sum;
  }
  void vector_pass(semfpga::backend::PassCost cost, semfpga::backend::PassBody body) override {
    const double t0 = now_s();
    inner_.vector_pass(cost, body);
    totals_.vector_pass_s += now_s() - t0;
    ++totals_.vector_pass_calls;
  }

  void solve_begin() override { inner_.solve_begin(); }
  void solve_end() override { inner_.solve_end(); }
  [[nodiscard]] std::int64_t operator_flops() const override { return inner_.operator_flops(); }
  [[nodiscard]] std::int64_t global_dofs() const override { return inner_.global_dofs(); }
  [[nodiscard]] std::size_t n_global() const override { return inner_.n_global(); }
  void gather(std::span<const double> global, std::span<double> local) const override {
    inner_.gather(global, local);
  }
  [[nodiscard]] const semfpga::backend::FpgaTimeline* timeline() const noexcept override {
    return inner_.timeline();
  }
  [[nodiscard]] semfpga::backend::FpgaTimeline* mutable_timeline() noexcept override {
    return inner_.mutable_timeline();
  }

 private:
  semfpga::backend::Backend& inner_;
  BackendTotals totals_;
};

/// Per-rank time and traffic of the fabric calls one rank made.
struct alignas(64) FabricTotals {
  double send_s = 0.0;
  double recv_wait_s = 0.0;
  double allreduce_s = 0.0;
  double barrier_s = 0.0;
  std::int64_t messages = 0;    ///< sends
  std::int64_t halo_bytes = 0;  ///< payload bytes sent
};

/// Times every call into `inner` (not owned), per calling rank.
class TimedFabric final : public semfpga::runtime::Fabric {
 public:
  explicit TimedFabric(semfpga::runtime::Fabric& inner)
      : inner_(inner), totals_(static_cast<std::size_t>(inner.n_ranks())) {}

  [[nodiscard]] const FabricTotals& totals(int rank) const {
    return totals_[static_cast<std::size_t>(rank)];
  }
  /// Clears `rank`'s slot; call from that rank's thread.
  void reset(int rank) { totals_[static_cast<std::size_t>(rank)] = {}; }

  [[nodiscard]] int n_ranks() const noexcept override { return inner_.n_ranks(); }
  void poison() noexcept override { inner_.poison(); }

  void send(int from, int to, std::span<const double> data) override {
    const double t0 = now_s();
    inner_.send(from, to, data);
    FabricTotals& t = totals_[static_cast<std::size_t>(from)];
    t.send_s += now_s() - t0;
    ++t.messages;
    t.halo_bytes += static_cast<std::int64_t>(data.size() * sizeof(double));
  }
  void recv(int from, int to, std::span<double> out) override {
    const double t0 = now_s();
    inner_.recv(from, to, out);
    totals_[static_cast<std::size_t>(to)].recv_wait_s += now_s() - t0;
  }
  void barrier(int rank) override {
    const double t0 = now_s();
    inner_.barrier(rank);
    totals_[static_cast<std::size_t>(rank)].barrier_s += now_s() - t0;
  }
  double allreduce_ordered(int rank, std::size_t slot_begin,
                           std::span<const double> contribution) override {
    const double t0 = now_s();
    const double sum = inner_.allreduce_ordered(rank, slot_begin, contribution);
    totals_[static_cast<std::size_t>(rank)].allreduce_s += now_s() - t0;
    return sum;
  }
  double allreduce_ordered(int rank, std::span<const std::int64_t> slots,
                           std::span<const double> contribution) override {
    const double t0 = now_s();
    const double sum = inner_.allreduce_ordered(rank, slots, contribution);
    totals_[static_cast<std::size_t>(rank)].allreduce_s += now_s() - t0;
    return sum;
  }

 private:
  semfpga::runtime::Fabric& inner_;
  std::vector<FabricTotals> totals_;
};

}  // namespace perfbench
