#pragma once
/// \file server.hpp
/// The long-lived multi-tenant solve server.
///
/// Wires the service tier together: clients submit() SolveRequests from
/// any thread; admission control lives in the bounded RequestQueue; a
/// worker pool pops same-setup-key batches, resolves the shared
/// SystemSetup through the LRU SetupCache, builds the per-batch system +
/// backend through the backend::make() registry, and runs each solve
/// through the one solver::solve_cg loop.  When the backend is the
/// simulated FPGA and the batch has more than one solve, the workers
/// bracket the batch in one FpgaSimBackend device session, so the modeled
/// PCIe begin/end is paid per batch rather than per solve.
///
/// Determinism contract: a request's response payload (iterations,
/// residuals, and the solution vector) is bitwise identical to
/// solve_standalone() of the same request, whatever the cache did, however
/// requests were batched, and whichever worker ran it — cached setups are
/// immutable, batching only moves modeled PCIe charges, and CG is
/// thread-count independent.  tests/service/ pins all of it.
///
/// Timing fields (queue_seconds, setup_seconds, solve_seconds) are
/// wall-clock measurements and the only non-deterministic bytes in a
/// response.

#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "common/timer.hpp"
#include "runtime/fault.hpp"
#include "service/queue.hpp"
#include "service/request.hpp"
#include "service/setup_cache.hpp"

namespace semfpga::service {

/// Server shape and dispatch policy.
struct ServerConfig {
  /// Worker threads draining the queue.  0 = manual mode: no threads are
  /// started and the owner pumps batches with run_once() — what the
  /// deterministic batching tests use.
  int workers = 2;
  std::size_t queue_capacity = 64;  ///< admission bound (reject beyond)
  std::size_t cache_capacity = 8;   ///< LRU setup entries
  std::size_t max_batch = 1;        ///< same-key solves per dispatch
  std::string backend = "cpu";      ///< backend::make() registry name
  backend::MakeOptions backend_options;
  int solve_threads = 1;  ///< PoissonSystem::set_threads per dispatch
  /// Fault plan (runtime/fault.hpp grammar); only request-site kinds
  /// (reject@/timeout@) ever fire here.  "" = none.
  std::string faults;
};

/// Monotonic totals since construction (submitted counts admission
/// attempts, including rejected ones).
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t solved = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
  std::int64_t failed = 0;
  std::int64_t batches = 0;         ///< dispatches (of any size)
  std::int64_t batched_solves = 0;  ///< solves that shared a batch of >= 2
};

/// The server.  Construction validates the config and starts the workers;
/// destruction stops them, completing still-queued requests as kRejected.
class SolveServer {
 public:
  explicit SolveServer(ServerConfig config);
  ~SolveServer();
  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Validates and admits `request`, returning the future response.
  /// Throws QueueFullError (queue at capacity or reject@ fault),
  /// ServiceStoppedError (after stop()), or std::invalid_argument
  /// (malformed request).  The returned future always resolves.
  [[nodiscard]] std::future<SolveResponse> submit(const SolveRequest& request);

  /// Stops admission and the workers.  drain=true (default) lets queued
  /// work finish; drain=false completes queued requests as kRejected.
  /// Idempotent.
  void stop(bool drain = true);

  /// Manual-mode pump (workers == 0): pops and dispatches one batch on the
  /// calling thread.  Returns the number of requests dispatched (0 = queue
  /// empty).
  std::size_t run_once();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const SetupCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  /// Faults that fired so far (reject@/timeout@ events).
  [[nodiscard]] std::vector<runtime::FaultEvent> fault_events() const {
    return faults_.events();
  }

 private:
  void worker_loop();
  void dispatch_batch(std::vector<PendingSolve> batch);
  /// Completes `pending` exceptionally or with a non-solved outcome.
  void complete(PendingSolve& pending, SolveResponse response);

  ServerConfig config_;
  runtime::FaultInjector faults_;
  SetupCache cache_;
  RequestQueue queue_;
  Timer clock_;  ///< the server clock: seconds since construction
  std::vector<std::thread> workers_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  std::int64_t next_id_ = 0;  ///< guarded by stats_mutex_

  std::mutex stop_mutex_;
  bool stopped_ = false;
};

/// Deterministic per-node forcing: uniform(-1, 1) from SplitMix64(seed) —
/// the one definition both the service dispatch and solve_standalone use.
void fill_forcing(std::uint64_t seed, std::span<double> f);

/// Builds the right system over a shared setup for `request`'s operator
/// kind (PoissonSystem or HelmholtzSystem with the request's lambda).
[[nodiscard]] std::unique_ptr<solver::PoissonSystem> make_system(
    std::shared_ptr<const solver::SystemSetup> setup, const SolveRequest& request);

/// The parity oracle: runs `request` exactly as a standalone binary would
/// (mesh built in place, no cache, no session) on the named backend.
/// The service's response payload must match this bitwise.
[[nodiscard]] SolveResponse solve_standalone(
    const SolveRequest& request, const std::string& backend_name,
    const backend::MakeOptions& options = {}, int solve_threads = 1);

}  // namespace semfpga::service
