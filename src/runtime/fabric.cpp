#include "runtime/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "runtime/fault.hpp"

namespace semfpga::runtime {
namespace {

/// Pacing of one bounded blocking wait: spin-yield while the wait is
/// short (the common case — peers are at most one CG pass apart), then
/// escalate to exponentially growing micro-sleeps so a long wait burns no
/// CPU.  The deadline clock only starts with the first sleep; the spin
/// phase is microseconds and would only add noise to the attribution.
class BoundedWait {
 public:
  explicit BoundedWait(double timeout_seconds) noexcept
      : timeout_seconds_(timeout_seconds) {}

  /// One pacing step; returns false once the deadline has expired.
  [[nodiscard]] bool pause() {
    if (spins_ < kSpinIterations) {
      ++spins_;
      std::this_thread::yield();
      return true;
    }
    if (!started_) {
      start_ = std::chrono::steady_clock::now();
      started_ = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    sleep_us_ = std::min(sleep_us_ * 2, kMaxSleepUs);
    if (timeout_seconds_ <= 0.0) {
      return true;  // infinite deadline
    }
    waited_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    return waited_seconds_ < timeout_seconds_;
  }

  [[nodiscard]] double waited_seconds() const noexcept { return waited_seconds_; }

 private:
  static constexpr int kSpinIterations = 1024;
  static constexpr long kMaxSleepUs = 1000;

  double timeout_seconds_;
  int spins_ = 0;
  long sleep_us_ = 10;
  bool started_ = false;
  double waited_seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

FabricTimeoutError::FabricTimeoutError(const std::string& site, int rank, int peer,
                                       double waited_seconds)
    : std::runtime_error("fabric timeout: rank " + std::to_string(rank) +
                         " waited " + std::to_string(waited_seconds) + "s in " +
                         site +
                         (peer >= 0 ? " (peer rank " + std::to_string(peer) + ")"
                                    : std::string()) +
                         " — peer hung, dead, or message lost"),
      site_(site),
      rank_(rank),
      peer_(peer),
      waited_seconds_(waited_seconds) {}

InProcessFabric::InProcessFabric(int n_ranks, std::size_t reduce_slots,
                                 double timeout_seconds)
    : n_ranks_(n_ranks),
      timeout_seconds_(timeout_seconds),
      edges_(static_cast<std::size_t>(n_ranks) * static_cast<std::size_t>(n_ranks)),
      slots_(reduce_slots),
      claims_(reduce_slots) {
  SEMFPGA_CHECK(n_ranks >= 1, "fabric needs at least one rank");
  // Registry lookup here (construction, cold) so the blocking paths only
  // touch the cached pointer — never the registry mutex.
  wait_hist_ = &obs::registry().histogram("fabric.wait_seconds", 1e-7, 10.0, 24);
}

void InProcessFabric::check_poison() const {
  if (poisoned_.load(std::memory_order_acquire)) {
    throw FabricPoisonedError();
  }
}

void InProcessFabric::throw_timeout(const char* site, int rank, int peer,
                                    double waited_seconds) {
  {
    const std::lock_guard<std::mutex> lock(timeout_mutex_);
    timeout_events_.push_back(FabricTimeoutEvent{site, rank, peer, waited_seconds});
  }
  throw FabricTimeoutError(site, rank, peer, waited_seconds);
}

std::vector<FabricTimeoutEvent> InProcessFabric::timeout_events() const {
  const std::lock_guard<std::mutex> lock(timeout_mutex_);
  return timeout_events_;
}

void InProcessFabric::poison() noexcept {
  // Every blocking wait is a bounded poll that re-checks this flag within
  // one sleep quantum (<= 1 ms), so setting it is all a wake-up takes.
  poisoned_.store(true, std::memory_order_release);
}

InProcessFabric::Edge& InProcessFabric::edge(int from, int to) {
  SEMFPGA_CHECK(0 <= from && from < n_ranks_ && 0 <= to && to < n_ranks_ && from != to,
                "edge endpoints must be distinct valid ranks");
  return edges_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_ranks_) +
                static_cast<std::size_t>(to)];
}

void InProcessFabric::send(int from, int to, std::span<const double> data) {
  Edge& e = edge(from, to);
  // Wait-vs-transfer split: the first span covers blocking on the peer
  // (slot still full), the second the actual copy onto the edge.
  obs::Span wait_span("halo.send.wait");
  BoundedWait wait(timeout_seconds_);
  std::uint32_t seq = e.seq.load(std::memory_order_acquire);
  while ((seq & 1u) != 0) {  // previous message not yet consumed
    check_poison();
    if (!wait.pause()) {
      throw_timeout("send", from, to, wait.waited_seconds());
    }
    seq = e.seq.load(std::memory_order_acquire);
  }
  check_poison();
  const bool traced = wait_span.active();
  const double waited = wait_span.end();
  if (traced) {
    wait_hist_->observe(waited);
  }
  OBS_SPAN("halo.send.transfer");
  e.payload.assign(data.begin(), data.end());
  if (injector_ != nullptr &&
      !injector_->on_send(from, to,
                          std::span<double>(e.payload.data(), e.payload.size()))) {
    // Scripted drop: the message vanishes "on the wire" — the slot stays
    // empty, so the receiver's bounded wait turns the loss into a typed
    // FabricTimeoutError instead of a silent deadlock.
    return;
  }
  e.seq.store(seq + 1, std::memory_order_release);
}

void InProcessFabric::recv(int from, int to, std::span<double> out) {
  Edge& e = edge(from, to);
  obs::Span wait_span("halo.recv.wait");
  BoundedWait wait(timeout_seconds_);
  std::uint32_t seq = e.seq.load(std::memory_order_acquire);
  while ((seq & 1u) == 0) {  // nothing posted yet
    check_poison();
    if (!wait.pause()) {
      throw_timeout("recv", to, from, wait.waited_seconds());
    }
    seq = e.seq.load(std::memory_order_acquire);
  }
  check_poison();
  const bool traced = wait_span.active();
  const double waited = wait_span.end();
  if (traced) {
    wait_hist_->observe(waited);
  }
  OBS_SPAN("halo.recv.transfer");
  SEMFPGA_CHECK(e.payload.size() == out.size(),
                "halo message size disagrees between sender and receiver");
  std::copy(e.payload.begin(), e.payload.end(), out.begin());
  e.seq.store(seq + 1, std::memory_order_release);
}

void InProcessFabric::barrier(int rank) { barrier_at(rank, "barrier"); }

void InProcessFabric::barrier_at(int rank, const char* site) {
  if (n_ranks_ == 1) {
    return;
  }
  OBS_SPAN("fabric.barrier");
  const std::uint32_t epoch = barrier_epoch_.load(std::memory_order_acquire);
  // The arrival fetch_add is a release so every rank's preceding writes
  // (slot-table stores, field updates) join the modification order the
  // last arriver acquires; its epoch bump then publishes them to everyone.
  if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_ranks_) {
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_epoch_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    BoundedWait wait(timeout_seconds_);
    std::uint32_t seen = epoch;
    while (seen == epoch) {
      check_poison();
      if (!wait.pause()) {
        throw_timeout(site, rank, -1, wait.waited_seconds());
      }
      seen = barrier_epoch_.load(std::memory_order_acquire);
    }
    check_poison();
  }
}

double InProcessFabric::allreduce_ordered(int rank, std::size_t slot_begin,
                                          std::span<const double> contribution) {
  OBS_SPAN("fabric.allreduce");
  SEMFPGA_CHECK(slot_begin + contribution.size() <= slots_.size(),
                "allreduce contribution overflows the slot vector");
  stall_if_due(rank);
  for (std::size_t i = 0; i < contribution.size(); ++i) {
    claim_slot(rank, slot_begin + i, contribution[i]);
  }
  barrier_at(rank, "allreduce");  // all contributions visible
  for (std::size_t i = 0; i < contribution.size(); ++i) {
    check_claim(rank, slot_begin + i);
  }
  return fold_slots(rank);
}

double InProcessFabric::allreduce_ordered(int rank,
                                          std::span<const std::int64_t> slots,
                                          std::span<const double> contribution) {
  OBS_SPAN("fabric.allreduce");
  SEMFPGA_CHECK(slots.size() == contribution.size(),
                "allreduce slot list and contribution must have equal length");
  for (const std::int64_t s : slots) {
    SEMFPGA_CHECK(s >= 0 && static_cast<std::size_t>(s) < slots_.size(),
                  "allreduce slot index out of range");
  }
  stall_if_due(rank);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    claim_slot(rank, static_cast<std::size_t>(slots[i]), contribution[i]);
  }
  barrier_at(rank, "allreduce");  // all contributions visible
  for (const std::int64_t s : slots) {
    check_claim(rank, static_cast<std::size_t>(s));
  }
  return fold_slots(rank);
}

void InProcessFabric::stall_if_due(int rank) {
  if (injector_ == nullptr) {
    return;
  }
  const double cap = injector_->on_collective(rank);
  if (cap <= 0.0) {
    return;
  }
  // Scripted stall: hold this rank at the allreduce entry until no peer
  // is left waiting on a deadline — a peer timed out and the launcher
  // poisoned the fabric, or every peer recorded its own timeout — or until
  // the cap.  Holding for a fixed time instead would let a peer that
  // arrives late find the contributions complete before its deadline.
  const auto start = std::chrono::steady_clock::now();
  const auto peers_timed_out = [this] {
    const std::lock_guard<std::mutex> lock(timeout_mutex_);
    return timeout_events_.size() >= static_cast<std::size_t>(n_ranks_ - 1);
  };
  while (!poisoned_.load(std::memory_order_acquire) && !peers_timed_out() &&
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
             cap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void InProcessFabric::claim_slot(int rank, std::size_t slot, double value) {
  slots_[slot].store(value, std::memory_order_relaxed);
  claims_[slot].store(rank, std::memory_order_relaxed);
}

void InProcessFabric::check_claim(int rank, std::size_t slot) {
  // After the entry barrier every claim of this collective is visible, and
  // a slot claimed twice holds the last claimer's rank: the overwritten
  // rank finds a foreign owner on a slot it wrote.
  const int owner = claims_[slot].load(std::memory_order_relaxed);
  if (owner != rank) {
    poison();
    SEMFPGA_CHECK(false, "allreduce slot " + std::to_string(slot) + " claimed by ranks " +
                             std::to_string(rank) + " and " + std::to_string(owner) +
                             ": the ranks' slot lists must be disjoint");
  }
}

double InProcessFabric::fold_slots(int rank) {
  // Every rank folds the identical canonical slot vector through the same
  // fixed tree — redundantly, which is how the in-process transport spells
  // "allreduce": the combine order never depends on the rank count.  The
  // fold scratch is per-thread (one thread per rank) and reused across the
  // 3 allreduces of every CG iteration — no allocation on the hot path.
  thread_local std::vector<double> fold;
  fold.resize(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    fold[s] = slots_[s].load(std::memory_order_relaxed);
  }
  const double result = tree_fold(fold);
  barrier_at(rank, "allreduce");  // nobody re-posts slots while a rank is still reading
  return result;
}

}  // namespace semfpga::runtime
