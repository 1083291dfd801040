/// The service determinism contract: a response's numeric payload
/// (iterations, residual, flops, solution vector) is bitwise identical to
/// solve_standalone() of the same request — for every backend x operator
/// kind, through the setup cache, and through batched fpga-sim dispatch.

#include <cmath>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/server.hpp"

namespace semfpga::service {
namespace {

SolveRequest request_for(solver::OperatorKind kind, std::uint64_t seed) {
  SolveRequest request;
  request.mesh.degree = 3;
  request.mesh.nelx = request.mesh.nely = request.mesh.nelz = 2;
  request.kind = kind;
  request.lambda = kind == solver::OperatorKind::kHelmholtz ? 1.5 : 0.0;
  request.rhs_seed = seed;
  request.max_iterations = 15;
  request.tolerance = 0.0;
  request.return_solution = true;
  return request;
}

/// The server reports the batch's set-up time on every solved response.
/// Only its sanity is checked: wall time is not a bitwise quantity.
void expect_setup_time_recorded(const SolveResponse& response) {
  EXPECT_TRUE(std::isfinite(response.setup_seconds));
  EXPECT_GE(response.setup_seconds, 0.0);
}

void expect_bitwise_equal(const SolveResponse& got, const SolveResponse& want) {
  EXPECT_EQ(got.outcome, Outcome::kSolved);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.final_residual, want.final_residual);
  EXPECT_EQ(got.flops, want.flops);
  ASSERT_EQ(got.solution.size(), want.solution.size());
  for (std::size_t p = 0; p < got.solution.size(); ++p) {
    ASSERT_EQ(got.solution[p], want.solution[p]) << "node " << p;
  }
}

TEST(ServiceParity, EveryBackendAndOperatorMatchesStandaloneBitwise) {
  for (const std::string& backend : {std::string("cpu"), std::string("fpga-sim")}) {
    for (const solver::OperatorKind kind :
         {solver::OperatorKind::kPoisson, solver::OperatorKind::kHelmholtz}) {
      const SolveRequest request = request_for(kind, /*seed=*/42);
      const SolveResponse standalone = solve_standalone(request, backend);

      ServerConfig config;
      config.workers = 2;
      config.backend = backend;
      SolveServer server(config);
      // Twice: the first goes through a cache miss, the second a cache hit.
      const SolveResponse cold = server.submit(request).get();
      const SolveResponse warm = server.submit(request).get();
      server.stop();

      expect_bitwise_equal(cold, standalone);
      expect_bitwise_equal(warm, standalone);
      expect_setup_time_recorded(cold);
      expect_setup_time_recorded(warm);
      EXPECT_TRUE(warm.setup_cache_hit);
    }
  }
}

TEST(ServiceParity, BatchedFpgaDispatchMatchesStandaloneBitwise) {
  // Manual mode makes batching deterministic: queue four same-key requests,
  // pump once, and all four must ride one device session.
  ServerConfig config;
  config.workers = 0;
  config.max_batch = 4;
  config.backend = "fpga-sim";
  config.backend_options.pcie_latency_s = 20e-6;  // latency must not leak
  SolveServer server(config);

  std::vector<std::future<SolveResponse>> futures;
  std::vector<SolveResponse> oracles;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SolveRequest request =
        request_for(solver::OperatorKind::kPoisson, seed);
    oracles.push_back(solve_standalone(request, "fpga-sim"));
    futures.push_back(server.submit(request));
  }
  EXPECT_EQ(server.run_once(), 4u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveResponse response = futures[i].get();
    EXPECT_EQ(response.batch_size, 4);
    expect_bitwise_equal(response, oracles[i]);
    expect_setup_time_recorded(response);
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.batched_solves, 4);
  EXPECT_EQ(stats.solved, 4);
}

TEST(ServiceParity, MixedKeysBatchSeparately) {
  ServerConfig config;
  config.workers = 0;
  config.max_batch = 8;
  SolveServer server(config);
  auto poisson = server.submit(request_for(solver::OperatorKind::kPoisson, 7));
  auto helmholtz =
      server.submit(request_for(solver::OperatorKind::kHelmholtz, 7));
  EXPECT_EQ(server.run_once(), 1u);  // keys differ: no coalescing
  EXPECT_EQ(server.run_once(), 1u);
  EXPECT_EQ(server.run_once(), 0u);
  EXPECT_EQ(poisson.get().batch_size, 1);
  EXPECT_EQ(helmholtz.get().batch_size, 1);
  server.stop();
}

}  // namespace
}  // namespace semfpga::service
