#pragma once
/// \file fabric.hpp
/// Transport seam of the in-process SPMD runtime.
///
/// The paper's evaluation platform (Noctua) is an FPGA *cluster*, and
/// Karp et al.'s follow-up flow solver makes distributed gather-scatter the
/// central scaling problem.  `Fabric` is the runtime's message layer: the
/// halo exchange and the dot-product allreduce are written against this
/// interface, so the in-process transport below can later be swapped for a
/// network (MPI-like) or simulated-latency transport without touching the
/// solver tier.
///
/// Collective contract: every rank issues the same sequence of collective
/// calls (barrier, allreduce_ordered) in the same program order; the
/// point-to-point send/recv pairs carry at most one outstanding message per
/// directed (from, to) edge, matched in program order.  These are exactly
/// MPI semantics restricted to what the distributed CG iteration needs.
///
/// `InProcessFabric` implements the interface with lock-free
/// single-producer/single-consumer edge slots (one atomic sequence number
/// per directed edge: even = empty, odd = full), a sense-reversing counter
/// barrier, and a shared slot table for the ordered allreduce.  Every
/// blocking call runs a bounded spin-then-sleep wait: after the configured
/// deadline it records a per-call-site FabricTimeoutEvent and throws
/// FabricTimeoutError — a hung or dead peer becomes a typed, attributable
/// failure instead of a silent deadlock.  An optional FaultInjector hook
/// lets tests script message delay/drop/corruption and collective stalls
/// at exact coordinates (see fault.hpp).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace semfpga::obs {
class Histogram;  // obs/obs.hpp
}  // namespace semfpga::obs

namespace semfpga::runtime {

class FaultInjector;  // fault.hpp

/// Thrown out of a blocking Fabric call after a peer rank poisoned the
/// fabric (it failed and will never reach its side of the collective).
/// The SPMD launcher treats these as secondary: the failing rank's
/// original exception is the one rethrown to the caller.
class FabricPoisonedError : public std::runtime_error {
 public:
  FabricPoisonedError() : std::runtime_error("fabric poisoned: a peer rank failed") {}
};

/// Thrown out of a blocking Fabric call whose deadline expired: the peer
/// is hung (or its message was lost) and never completed its side of the
/// exchange.  Unlike poisoning this is a *primary* failure — the waiting
/// rank is the first to discover the loss — so the SPMD launcher rethrows
/// it to the caller (unless a peer's own non-fabric error explains it).
class FabricTimeoutError : public std::runtime_error {
 public:
  FabricTimeoutError(const std::string& site, int rank, int peer,
                     double waited_seconds);
  /// Call-site that expired: "send", "recv", "barrier" or "allreduce".
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  /// Peer rank of a point-to-point wait; -1 for collectives.
  [[nodiscard]] int peer() const noexcept { return peer_; }
  [[nodiscard]] double waited_seconds() const noexcept { return waited_seconds_; }

 private:
  std::string site_;
  int rank_;
  int peer_;
  double waited_seconds_;
};

/// Per-call-site record of an expired fabric deadline.
struct FabricTimeoutEvent {
  std::string site;
  int rank = -1;
  int peer = -1;
  double waited_seconds = 0.0;
};

/// Abstract rank-to-rank transport (see file comment for the contract).
class Fabric {
 public:
  virtual ~Fabric() = default;

  [[nodiscard]] virtual int n_ranks() const noexcept = 0;

  /// Marks every pending and future blocking call as doomed: waiters wake
  /// and throw FabricPoisonedError instead of blocking forever on a rank
  /// that died.  Called by the SPMD launcher when a rank body throws; the
  /// fabric is unusable afterwards.
  virtual void poison() noexcept = 0;

  /// Blocking point-to-point: delivers `data` from rank `from` to rank
  /// `to`.  Blocks while the edge still holds an unconsumed message.
  virtual void send(int from, int to, std::span<const double> data) = 0;

  /// Blocking receive of the next message on edge (from, to) into `out`;
  /// the sizes must match.
  virtual void recv(int from, int to, std::span<double> out) = 0;

  /// Collective barrier.
  virtual void barrier(int rank) = 0;

  /// Deterministic ordered allreduce: rank `rank` contributes the global
  /// reduction slots [slot_begin, slot_begin + contribution.size()); the
  /// ranks' ranges must tile the fixed slot vector exactly.  Every rank
  /// receives tree_fold(slots) — the same fixed-association fold the
  /// single-rank segmented_reduce computes, so the result is bitwise
  /// independent of the rank count.
  virtual double allreduce_ordered(int rank, std::size_t slot_begin,
                                   std::span<const double> contribution) = 0;

  /// Indexed variant for non-contiguous rank ownership: contribution[i]
  /// lands in global slot slots[i].  Pencil/3D block partitions own one
  /// slot per *global element*, and a block's elements are strided in the
  /// global element order — the contiguous variant cannot express that.
  /// Same tiling contract (the ranks' slot lists are disjoint and cover
  /// the slot vector), same bitwise-canonical tree fold.  InProcessFabric
  /// ends a collective in which two ranks claim one slot with
  /// std::invalid_argument on the overwritten rank and poisons its peers.
  virtual double allreduce_ordered(int rank, std::span<const std::int64_t> slots,
                                   std::span<const double> contribution) = 0;
};

/// Lock-free shared-memory Fabric for rank threads of one process.
class InProcessFabric final : public Fabric {
 public:
  /// Deadline applied to every blocking call when the ctor is not given
  /// one explicitly.  Generous: tier-1 solves finish in milliseconds, so
  /// only a genuinely hung peer ever reaches it.
  static constexpr double kDefaultTimeoutSeconds = 30.0;

  /// \param n_ranks          ranks sharing the fabric
  /// \param reduce_slots     length of the allreduce slot vector (the
  ///                         solver passes the global element count)
  /// \param timeout_seconds  per-blocking-call deadline; <= 0 waits forever
  InProcessFabric(int n_ranks, std::size_t reduce_slots,
                  double timeout_seconds = kDefaultTimeoutSeconds);

  [[nodiscard]] int n_ranks() const noexcept override { return n_ranks_; }
  void poison() noexcept override;
  void send(int from, int to, std::span<const double> data) override;
  void recv(int from, int to, std::span<double> out) override;
  void barrier(int rank) override;
  double allreduce_ordered(int rank, std::size_t slot_begin,
                           std::span<const double> contribution) override;
  double allreduce_ordered(int rank, std::span<const std::int64_t> slots,
                           std::span<const double> contribution) override;

  [[nodiscard]] double timeout_seconds() const noexcept { return timeout_seconds_; }

  /// Optional scripted-fault hook (not owned; may be null).  The injector
  /// sees every halo send (delay/drop/corrupt) and allreduce entry (stall).
  void set_fault_injector(FaultInjector* injector) noexcept { injector_ = injector; }

  /// Every deadline that expired on this fabric, in firing order.
  [[nodiscard]] std::vector<FabricTimeoutEvent> timeout_events() const;

 private:
  /// Throws FabricPoisonedError once poison() has been called.
  void check_poison() const;
  /// Records the event and throws FabricTimeoutError.
  [[noreturn]] void throw_timeout(const char* site, int rank, int peer,
                                  double waited_seconds);
  /// Collective barrier attributed to `site` ("barrier" or "allreduce").
  void barrier_at(int rank, const char* site);
  /// Holds `rank` at an allreduce entry while the injector's stall is due.
  void stall_if_due(int rank);
  /// Writes one contribution and tags the slot with the claiming rank.
  void claim_slot(int rank, std::size_t slot, double value);
  /// After the entry barrier: poisons the fabric and throws
  /// std::invalid_argument when another rank claimed `slot` too.
  void check_claim(int rank, std::size_t slot);
  /// Folds the slot vector, then holds the exit barrier.
  double fold_slots(int rank);

  /// SPSC mailbox of one directed edge.  seq is even when the slot is
  /// empty, odd while a message waits; sender and receiver each flip it
  /// once, so the pair never races and never locks.
  struct alignas(64) Edge {
    std::atomic<std::uint32_t> seq{0};
    std::vector<double> payload;
  };

  [[nodiscard]] Edge& edge(int from, int to);

  int n_ranks_;
  double timeout_seconds_;
  std::vector<Edge> edges_;  ///< [from * n_ranks + to]; sized once, never moved

  std::atomic<int> barrier_count_{0};
  std::atomic<std::uint32_t> barrier_epoch_{0};
  std::atomic<bool> poisoned_{false};

  /// Allreduce contributions and the rank that claimed each slot.  Atomic
  /// (relaxed; the barriers order them) so that two ranks claiming one
  /// slot are a detected error, not a data race.
  std::vector<std::atomic<double>> slots_;
  std::vector<std::atomic<int>> claims_;

  FaultInjector* injector_ = nullptr;

  /// Wait-time histogram (obs registry; resolved once in the ctor so the
  /// hot blocking paths never take the registry lookup mutex).
  obs::Histogram* wait_hist_ = nullptr;

  mutable std::mutex timeout_mutex_;  ///< guards timeout_events_ (cold path)
  std::vector<FabricTimeoutEvent> timeout_events_;
};

}  // namespace semfpga::runtime
