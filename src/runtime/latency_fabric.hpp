#pragma once
/// \file latency_fabric.hpp
/// Link-latency decoration of a Fabric — faults and network models share
/// one seam.
///
/// A LatencyFabric forwards every Fabric call to an inner transport and
/// sleeps the sum of its policies' delays before sends and collective
/// entries.  Numerics are untouched (the payload and the deterministic
/// fold orders pass through verbatim); only wall-clock timing changes,
/// which is exactly what both users of the seam want:
///
///  * FaultDelayPolicy     — the `delay@rR:iI[:sS]` fault kind.  The
///    injector's take_send_delay() claims the due spec (and records the
///    event); the decorator performs the sleep.  fault.cpp no longer
///    sleeps inline: a delayed link is a latency property of the fabric,
///    not a payload corruption.
///  * ModeledNetworkPolicy — an arch::NetworkSpec charged in real time:
///    latency + bytes/bandwidth per point-to-point message, a log-tree
///    latency per ordered allreduce.  Running the in-process runtime under
///    this policy makes the measured solve exhibit the same network terms
///    bench/cluster_projection charges analytically.
///
/// Policies compose: delays add, so a faulted link under a modeled network
/// is simply slower than its peers.

#include <cstddef>
#include <memory>
#include <vector>

#include "arch/network.hpp"
#include "runtime/fabric.hpp"

namespace semfpga::runtime {

/// One source of link/collective latency (seconds; 0 = no delay).
class LatencyPolicy {
 public:
  virtual ~LatencyPolicy() = default;
  /// Extra latency of the next message on directed edge (from, to).
  [[nodiscard]] virtual double send_delay_seconds(int from, int to,
                                                  std::size_t bytes) = 0;
  /// Extra latency of rank's next collective entry.
  [[nodiscard]] virtual double collective_delay_seconds(int rank) = 0;
};

/// Routes `delay@` fault specs through the latency seam: each due spec is
/// claimed (and its event recorded) by FaultInjector::take_send_delay; the
/// decorator sleeps the returned seconds.
class FaultDelayPolicy final : public LatencyPolicy {
 public:
  /// `injector` is not owned and must outlive the policy.
  explicit FaultDelayPolicy(FaultInjector& injector) : injector_(injector) {}
  [[nodiscard]] double send_delay_seconds(int from, int to, std::size_t bytes) override;
  [[nodiscard]] double collective_delay_seconds(int rank) override;

 private:
  FaultInjector& injector_;
};

/// Charges an arch::NetworkSpec in real time: every message pays
/// latency + bytes/bandwidth, every collective entry the 2*ceil(log2 R)
/// hop latencies of the fan-in/fan-out reduction tree.
class ModeledNetworkPolicy final : public LatencyPolicy {
 public:
  ModeledNetworkPolicy(const arch::NetworkSpec& network, int n_ranks);
  [[nodiscard]] double send_delay_seconds(int from, int to, std::size_t bytes) override;
  [[nodiscard]] double collective_delay_seconds(int rank) override;

 private:
  arch::NetworkSpec network_;
  double collective_seconds_ = 0.0;  ///< precomputed per-entry tree latency
};

/// Fabric decorator: forwards everything to `inner`, sleeping the summed
/// policy delays before sends and collective entries.
class LatencyFabric final : public Fabric {
 public:
  /// `inner` is not owned and must outlive the decorator.
  explicit LatencyFabric(Fabric& inner) : inner_(inner) {}

  /// Appends a policy (delays add across policies).
  void add_policy(std::unique_ptr<LatencyPolicy> policy);

  [[nodiscard]] int n_ranks() const noexcept override { return inner_.n_ranks(); }
  void poison() noexcept override { inner_.poison(); }
  void send(int from, int to, std::span<const double> data) override;
  void recv(int from, int to, std::span<double> out) override;
  void barrier(int rank) override { inner_.barrier(rank); }
  double allreduce_ordered(int rank, std::size_t slot_begin,
                           std::span<const double> contribution) override;
  double allreduce_ordered(int rank, std::span<const std::int64_t> slots,
                           std::span<const double> contribution) override;

 private:
  void sleep_send_delays(int from, int to, std::size_t bytes);
  void sleep_collective_delays(int rank);

  Fabric& inner_;
  std::vector<std::unique_ptr<LatencyPolicy>> policies_;
};

}  // namespace semfpga::runtime
