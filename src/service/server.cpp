#include "service/server.hpp"

#include <exception>
#include <utility>

#include "backend/fpga_sim_backend.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "solver/cg.hpp"
#include "solver/helmholtz_system.hpp"

namespace semfpga::service {
namespace {

/// How long a worker sleeps on an empty queue before re-checking for
/// shutdown.  Pure liveness; no result depends on it.
constexpr double kWorkerPollSeconds = 0.05;

// Latency histograms are log-spaced (the registry's only shape): 1 us to
// 10 s covers queue waits and solves across mesh sizes at ~26%/bucket
// resolution.
constexpr double kLatencyLo = 1e-6;
constexpr double kLatencyHi = 10.0;
constexpr int kLatencyBuckets = 70;

void validate(const SolveRequest& request) {
  SEMFPGA_CHECK(request.mesh.degree >= 1, "request degree must be >= 1");
  SEMFPGA_CHECK(
      request.mesh.nelx >= 1 && request.mesh.nely >= 1 && request.mesh.nelz >= 1,
      "request element counts must be >= 1");
  SEMFPGA_CHECK(request.max_iterations >= 1, "request needs >= 1 CG iteration");
  SEMFPGA_CHECK(request.tolerance >= 0.0, "request tolerance must be >= 0");
  SEMFPGA_CHECK(request.deadline_seconds >= 0.0, "request deadline must be >= 0");
  if (request.kind == solver::OperatorKind::kHelmholtz) {
    SEMFPGA_CHECK(request.lambda >= 0.0, "request lambda must be >= 0");
  }
}

/// The one solve core both the service dispatch and the standalone oracle
/// run: deterministic forcing -> RHS -> CG.  Anything latency-related is
/// filled in by the caller.
SolveResponse run_solve(backend::Backend& backend,
                        const solver::PoissonSystem& system,
                        const SolveRequest& request) {
  const std::size_t n = system.n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  aligned_vector<double> x(n, 0.0);
  fill_forcing(request.rhs_seed, f);
  system.assemble_rhs(f, b);

  solver::CgOptions options;
  options.max_iterations = request.max_iterations;
  options.tolerance = request.tolerance;
  options.use_jacobi = true;

  const solver::CgResult result = solver::solve_cg(backend, b, x, options);

  SolveResponse response;
  response.outcome = Outcome::kSolved;
  response.iterations = result.iterations;
  response.converged = result.converged;
  response.final_residual = result.final_residual;
  response.flops = result.flops;
  if (request.return_solution) {
    response.solution.assign(x.begin(), x.end());
  }
  return response;
}

}  // namespace

const char* outcome_name(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kSolved:
      return "solved";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kExpired:
      return "expired";
    case Outcome::kFailed:
      return "failed";
  }
  return "?";
}

void fill_forcing(std::uint64_t seed, std::span<double> f) {
  SplitMix64 rng(seed);
  for (std::size_t p = 0; p < f.size(); ++p) {
    f[p] = rng.uniform(-1.0, 1.0);
  }
}

std::unique_ptr<solver::PoissonSystem> make_system(
    std::shared_ptr<const solver::SystemSetup> setup, const SolveRequest& request) {
  if (request.kind == solver::OperatorKind::kHelmholtz) {
    return std::make_unique<solver::HelmholtzSystem>(std::move(setup),
                                                     request.lambda);
  }
  return std::make_unique<solver::PoissonSystem>(std::move(setup));
}

SolveResponse solve_standalone(const SolveRequest& request,
                               const std::string& backend_name,
                               const backend::MakeOptions& options,
                               int solve_threads) {
  validate(request);
  Timer setup_timer;
  const sem::Mesh mesh = sem::box_mesh(request.mesh);
  std::unique_ptr<solver::PoissonSystem> system;
  if (request.kind == solver::OperatorKind::kHelmholtz) {
    system = std::make_unique<solver::HelmholtzSystem>(mesh, request.lambda);
  } else {
    system = std::make_unique<solver::PoissonSystem>(mesh);
  }
  system->set_threads(solve_threads);
  const auto backend = backend::make(backend_name, *system, options);
  const double setup_seconds = setup_timer.seconds();
  Timer timer;
  SolveResponse response = run_solve(*backend, *system, request);
  response.setup_seconds = setup_seconds;
  response.solve_seconds = timer.seconds();
  return response;
}

SolveServer::SolveServer(ServerConfig config)
    : config_(std::move(config)),
      faults_(runtime::parse_fault_plan(config_.faults)),
      cache_(config_.cache_capacity),
      queue_(config_.queue_capacity, &faults_) {
  SEMFPGA_CHECK(config_.workers >= 0, "worker count must be >= 0");
  SEMFPGA_CHECK(config_.max_batch >= 1, "max batch must be >= 1");
  backend::require_known(config_.backend);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveServer::~SolveServer() { stop(/*drain=*/true); }

std::future<SolveResponse> SolveServer::submit(const SolveRequest& request) {
  validate(request);
  PendingSolve pending;
  pending.request = request;
  pending.key = key_of(request.mesh, request.kind, request.lambda);
  pending.submit_seconds = clock_.seconds();
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    pending.id = next_id_++;
    ++stats_.submitted;
  }
  std::future<SolveResponse> future = pending.promise.get_future();
  try {
    queue_.push(std::move(pending));
  } catch (const QueueFullError&) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected;
    throw;
  }
  return future;
}

void SolveServer::stop(bool drain) {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  queue_.close();
  if (!drain) {
    // Abort path: fail queued work fast so clients unblock before joins.
    for (PendingSolve& pending : queue_.drain()) {
      SolveResponse response;
      response.id = pending.id;
      response.outcome = Outcome::kRejected;
      response.error = "service stopped";
      complete(pending, std::move(response));
    }
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  // Whatever is still queued (manual mode, or pushes that raced close):
  // every accepted request must resolve.
  for (PendingSolve& pending : queue_.drain()) {
    SolveResponse response;
    response.id = pending.id;
    response.outcome = Outcome::kRejected;
    response.error = "service stopped";
    complete(pending, std::move(response));
  }
}

std::size_t SolveServer::run_once() {
  SEMFPGA_CHECK(config_.workers == 0,
                "run_once is the manual-mode pump (workers == 0)");
  std::vector<PendingSolve> batch =
      queue_.pop_batch(config_.max_batch, /*wait_seconds=*/0.0);
  const std::size_t n = batch.size();
  if (n > 0) {
    dispatch_batch(std::move(batch));
  }
  return n;
}

ServerStats SolveServer::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SolveServer::worker_loop() {
  for (;;) {
    std::vector<PendingSolve> batch =
        queue_.pop_batch(config_.max_batch, kWorkerPollSeconds);
    if (batch.empty()) {
      if (queue_.closed() && queue_.size() == 0) {
        return;
      }
      continue;
    }
    dispatch_batch(std::move(batch));
  }
}

void SolveServer::complete(PendingSolve& pending, SolveResponse response) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (response.outcome) {
      case Outcome::kSolved:
        ++stats_.solved;
        if (response.batch_size >= 2) {
          ++stats_.batched_solves;
        }
        break;
      case Outcome::kRejected:
        ++stats_.rejected;
        break;
      case Outcome::kExpired:
        ++stats_.expired;
        break;
      case Outcome::kFailed:
        ++stats_.failed;
        break;
    }
  }
  pending.promise.set_value(std::move(response));
}

void SolveServer::dispatch_batch(std::vector<PendingSolve> batch) {
  OBS_SPAN("service.dispatch");
  const double now = clock_.seconds();

  // Deadline / scripted-timeout triage: expiry is judged here, at dequeue,
  // where the queue wait is known.
  std::vector<PendingSolve> live;
  live.reserve(batch.size());
  for (PendingSolve& pending : batch) {
    const double wait = now - pending.submit_seconds;
    const bool timed_out =
        faults_.on_request_dequeue(static_cast<int>(pending.id));
    const bool past_deadline = pending.request.deadline_seconds > 0.0 &&
                               wait > pending.request.deadline_seconds;
    if (timed_out || past_deadline) {
      SolveResponse response;
      response.id = pending.id;
      response.outcome = Outcome::kExpired;
      response.queue_seconds = wait;
      response.error = timed_out ? "expired by timeout fault" : "deadline exceeded";
      obs::registry().counter("service.expired").add(1);
      complete(pending, std::move(response));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches;
  }
  obs::registry()
      .histogram("service.batch_occupancy", 1.0, 1024.0, 10)
      .observe(static_cast<double>(live.size()));

  // One shared setup, one system, one backend for the whole (same-key)
  // batch.
  Timer setup_timer;
  bool cache_hit = false;
  SetupCache::Ptr setup;
  try {
    setup = cache_.get(live.front().key, &cache_hit);
  } catch (const std::exception& e) {
    const double setup_seconds = setup_timer.seconds();
    for (PendingSolve& pending : live) {
      SolveResponse response;
      response.id = pending.id;
      response.outcome = Outcome::kFailed;
      response.queue_seconds = now - pending.submit_seconds;
      response.setup_seconds = setup_seconds;
      response.error = e.what();
      complete(pending, std::move(response));
    }
    return;
  }
  const std::unique_ptr<solver::PoissonSystem> system =
      make_system(setup, live.front().request);
  system->set_threads(config_.solve_threads);
  const std::unique_ptr<backend::Backend> backend =
      backend::make(config_.backend, *system, config_.backend_options);
  const double setup_seconds = setup_timer.seconds();

  // Batched device dispatch: bracket a multi-solve batch in one modeled
  // device session, so PCIe begin/end is paid once for the whole batch.
  auto* fpga = dynamic_cast<backend::FpgaSimBackend*>(backend.get());
  const bool session = fpga != nullptr && live.size() > 1;
  if (session) {
    fpga->session_begin(live.size());
  }
  auto& latency_hist = obs::registry().histogram(
      "service.latency_seconds", kLatencyLo, kLatencyHi, kLatencyBuckets);
  auto& wait_hist = obs::registry().histogram(
      "service.queue_wait_seconds", kLatencyLo, kLatencyHi, kLatencyBuckets);
  for (PendingSolve& pending : live) {
    SolveResponse response;
    response.id = pending.id;
    response.queue_seconds = now - pending.submit_seconds;
    response.setup_seconds = setup_seconds;
    response.setup_cache_hit = cache_hit;
    response.batch_size = static_cast<int>(live.size());
    Timer solve_timer;
    try {
      SolveResponse solved = run_solve(*backend, *system, pending.request);
      solved.id = response.id;
      solved.queue_seconds = response.queue_seconds;
      solved.setup_seconds = response.setup_seconds;
      solved.setup_cache_hit = response.setup_cache_hit;
      solved.batch_size = response.batch_size;
      response = std::move(solved);
    } catch (const std::exception& e) {
      response.outcome = Outcome::kFailed;
      response.error = e.what();
    }
    response.solve_seconds = solve_timer.seconds();
    wait_hist.observe(response.queue_seconds);
    latency_hist.observe(response.queue_seconds + response.setup_seconds +
                         response.solve_seconds);
    complete(pending, std::move(response));
  }
  if (session) {
    fpga->session_end(live.size());
  }
}

}  // namespace semfpga::service
