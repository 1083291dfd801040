#pragma once
/// \file request.hpp
/// The solve service's wire model: SolveRequest in, SolveResponse out.
///
/// A request names everything a solve needs — mesh spec, operator kind and
/// coefficient, forcing seed, CG budget — in plain values, so the server
/// can (a) key its setup cache on the mesh-and-operator part and (b)
/// reproduce the exact standalone solve for any request: a response's
/// iterates are bitwise identical to running the same spec through
/// solve_standalone() (tests/service/ pins this).  Admission failures are
/// typed exceptions at submit(); accepted requests always resolve to a
/// SolveResponse whose Outcome says what happened.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sem/mesh.hpp"
#include "solver/poisson_system.hpp"

namespace semfpga::service {

/// What happened to an accepted request.
enum class Outcome {
  kSolved,    ///< CG ran; see iterations/converged/final_residual
  kRejected,  ///< server stopped before dispatch (admission rejects throw)
  kExpired,   ///< deadline passed (or a timeout@ fault fired) at dequeue
  kFailed,    ///< dispatch threw; `error` carries the message
};

/// Stable lowercase name ("solved", "rejected", "expired", "failed").
[[nodiscard]] const char* outcome_name(Outcome outcome) noexcept;

/// One tenant's solve order.
struct SolveRequest {
  sem::BoxMeshSpec mesh;  ///< topology + order (degree lives here)
  solver::OperatorKind kind = solver::OperatorKind::kPoisson;
  double lambda = 1.0;          ///< Helmholtz mass coefficient (ignored for Poisson)
  std::uint64_t rhs_seed = 1;   ///< forcing = uniform(-1,1) per node from this seed
  double tolerance = 0.0;       ///< CG relative tolerance; 0 = run the full budget
  int max_iterations = 50;      ///< CG iteration budget
  double deadline_seconds = 0.0;  ///< queue-wait bound, server clock; 0 = none
  bool return_solution = false;   ///< copy the solution vector into the response
};

/// The server's answer.
struct SolveResponse {
  std::int64_t id = 0;  ///< submission sequence number (what fault specs name)
  Outcome outcome = Outcome::kFailed;
  int iterations = 0;
  bool converged = false;
  double final_residual = 0.0;
  std::int64_t flops = 0;
  double queue_seconds = 0.0;  ///< submit -> dequeue wait
  /// Set-up wall time before the solve: in the server, the batch's
  /// setup-cache lookup plus its system and backend build (reported on each
  /// response of the batch); in solve_standalone, the mesh, system and
  /// backend build.
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;  ///< CG wall time
  bool setup_cache_hit = false;
  int batch_size = 1;  ///< solves sharing this request's device dispatch
  std::string error;   ///< kFailed: what the dispatch threw
  std::vector<double> solution;  ///< filled iff request.return_solution
};

/// Admission control refused the request: the bounded queue is full (or a
/// reject@ fault said to pretend it is).  The client may back off and retry.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(std::size_t capacity)
      : std::runtime_error("solve queue full (capacity " +
                           std::to_string(capacity) + ")") {}
};

/// The server is stopped (or stopping) and accepts no new work.
class ServiceStoppedError : public std::runtime_error {
 public:
  ServiceStoppedError() : std::runtime_error("solve service is stopped") {}
};

}  // namespace semfpga::service
