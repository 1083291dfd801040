#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the SPMD runtime.
///
/// The paper's future projection scales CG to hundreds of FPGA ranks; at
/// that scale rank loss, stalled links and corrupted transfers are the
/// steady state, not the exception.  This header makes every one of those
/// failure modes a *scripted, reproducible input*: a FaultPlan names exact
/// (kind, rank, iteration) coordinates, and the FaultInjector fires each
/// fault exactly once at the first matching call-site — so a recovery path
/// can be pinned in a unit test the same way a numerical contract is.
///
/// Fault spec grammar (comma-separated list):
///
///     kind@rR:iI[:sSECONDS]
///
///     crash@r2:i5        rank 2 throws InjectedRankFailure after finishing
///                        CG iteration 5 (fires in the rank body)
///     delay@r0:i3        rank 0's first halo send after iteration 3 is
///                        delayed (default 0.02 s; override with :s0.5).
///                        Injected as link latency by the LatencyFabric
///                        decorator (runtime::FaultDelayPolicy), the same
///                        seam the modeled-network policy charges — not an
///                        inline sleep in the send hook
///     drop@r1:i4         rank 1's first halo send after iteration 4 is
///                        silently discarded (the receiver's bounded wait
///                        turns the loss into a FabricTimeoutError)
///     nan@r1:i3          corrupts that send's payload with a quiet NaN
///     bitflip@r0:i2      flips a high exponent bit in the payload instead
///     stall@r3:i6        rank 3 holds at its next allreduce entry until
///                        the peers' fabric deadlines have expired (capped
///                        at the default, or at :sSECONDS)
///
/// Request-level kinds (the solve-service tier, src/service/):
///
///     reject@r0:i7       request id 7 is rejected at admission as if the
///                        queue were full (QueueFullError to the client)
///     timeout@r0:i7      request id 7 is expired at dequeue as if its
///                        deadline had passed (outcome kExpired)
///
/// Sites are implied by the kind: crash fires at the end-of-iteration hook,
/// delay/drop/nan/bitflip at halo sends, stall at allreduce entry, and
/// reject/timeout at the service's request hooks.  Each fault fires once
/// per plan (one-shot).  SPMD faults key on the owning rank having
/// *completed* at least I iterations — deterministic because the iteration
/// count advances in program order on the owning rank's own thread.
/// Request faults key on the *exact* request sequence id instead (i is the
/// id; r is accepted for grammar uniformity and ignored), so one spec names
/// one request whatever order the queue drains in.

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <mutex>

namespace semfpga::runtime {

/// What goes wrong.
enum class FaultKind { kCrash, kDelay, kDrop, kNan, kBitFlip, kStall, kTimeout, kReject };

/// Where it goes wrong (implied by the kind; see file comment).
enum class FaultSite { kIteration, kHaloSend, kAllreduce, kRequest };

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;
[[nodiscard]] const char* fault_site_name(FaultSite site) noexcept;

/// One scripted fault at exact (rank, iteration, call-site) coordinates.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  FaultSite site = FaultSite::kIteration;
  int rank = 0;
  int iteration = 0;     ///< fires once rank has completed >= this many iterations
  double seconds = 0.0;  ///< delay/stall duration; 0 = kind default
};

/// A parsed, ordered list of scripted faults.
struct FaultPlan {
  std::vector<FaultSpec> faults;
  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }
};

/// Parses the grammar above.  Throws std::invalid_argument on malformed
/// specs, naming the offending token.  "" parses to an empty plan.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Thrown inside a rank body by a due crash fault — models the rank dying
/// mid-solve.  The SPMD launcher poisons the fabric and rethrows this as
/// the primary error; the resilient driver reacts with shrink-and-resolve.
class InjectedRankFailure : public std::runtime_error {
 public:
  InjectedRankFailure(int rank, int iteration);
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int iteration() const noexcept { return iteration_; }

 private:
  int rank_;
  int iteration_;
};

/// One fault that actually fired (for the ResilienceReport).
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  FaultSite site = FaultSite::kIteration;
  int rank = 0;
  int iteration = 0;
  std::string detail;
  [[nodiscard]] std::string to_string() const;
};

/// Executes a FaultPlan against a running solve.  Thread-safety contract:
/// every spec belongs to exactly one rank, and all hooks for rank R are
/// invoked from rank R's own thread (the CG iteration hook, that rank's
/// halo sends, that rank's allreduce entries), so the firing state needs no
/// atomics; only the shared event log is mutex-guarded.  begin_attempt()
/// must be called between SPMD launches (thread join/create orders it).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }

  /// Stall cap used when a stall spec carries no :sSECONDS —
  /// solve_distributed_resilient sets this well past the fabric deadline,
  /// so a peer that reaches the collective late still times out before the
  /// stall ends.
  void set_default_stall_seconds(double seconds) noexcept {
    default_stall_seconds_ = seconds;
  }

  /// Collective reset before a (re)started attempt: `n_ranks` surviving
  /// ranks, each having completed `start_iteration` iterations (the
  /// checkpoint the attempt resumes from).  Fired faults stay fired.
  void begin_attempt(int n_ranks, int start_iteration);

  /// End-of-iteration hook (called by the resilient CG wrapper with the
  /// global iteration number).  Throws InjectedRankFailure when a crash
  /// fault is due on `rank`.
  void on_iteration(int rank, int iteration);

  /// Halo-send hook.  May corrupt `payload` in place (nan/bitflip) or
  /// return false to drop the message entirely.  delay@ faults are not
  /// consumed here — they are link-latency policies claimed through
  /// take_send_delay() by the LatencyFabric decorator.
  [[nodiscard]] bool on_send(int from, int to, std::span<double> payload);

  /// Latency-policy hook (runtime::FaultDelayPolicy): claims every due
  /// delay@ fault on `from`'s next halo send, records the firing, and
  /// returns the seconds to inject (0 when none is due).  The sleep itself
  /// happens in the LatencyFabric decorator — delay is modeled as link
  /// latency, the same seam the network model charges.
  [[nodiscard]] double take_send_delay(int from, int to);

  /// Allreduce-entry hook: claims every due stall fault on `rank`, records
  /// it, and returns the longest the fabric may hold the rank (0 when none
  /// is due).  The hold itself happens in the fabric, which ends it early
  /// once no peer is left waiting on a deadline.
  [[nodiscard]] double on_collective(int rank);

  /// Request-admission hook (solve service): true when a reject@ fault
  /// names `request_id`, in which case the caller must refuse admission as
  /// if the queue were full.  Unlike the SPMD hooks this runs on arbitrary
  /// client threads, so the firing byte is claimed under the event mutex.
  [[nodiscard]] bool on_request_submit(int request_id);

  /// Request-dequeue hook (solve service): true when a timeout@ fault
  /// names `request_id`, in which case the caller must expire the request
  /// as if its deadline had passed.  Runs on arbitrary worker threads.
  [[nodiscard]] bool on_request_dequeue(int request_id);

  /// Snapshot of every fault that fired so far (any thread).
  [[nodiscard]] std::vector<FaultEvent> events() const;

 private:
  /// True (and marks the spec fired) when spec `idx` is due for `rank` at
  /// completed-iteration count `iteration` on `site`.
  bool fire(std::size_t idx, FaultSite site, int rank, int iteration);
  /// One-shot claim of the first unfired kRequest spec of `kind` whose
  /// iteration field equals `request_id` (mutex-guarded; request specs and
  /// SPMD specs never share a firing byte, so the two disciplines coexist).
  bool fire_request(FaultKind kind, int request_id, const char* detail);
  void record(const FaultSpec& spec, int iteration, std::string detail);

  std::vector<FaultSpec> specs_;
  std::vector<unsigned char> fired_;  ///< one byte per spec; owner-thread access
  std::vector<int> iterations_;       ///< completed iterations per rank
  double default_stall_seconds_ = 0.5;
  double default_delay_seconds_ = 0.02;

  mutable std::mutex events_mutex_;
  std::vector<FaultEvent> events_;
};

}  // namespace semfpga::runtime
