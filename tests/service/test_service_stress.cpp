/// Concurrency stress for the solve service, meant to run under TSan: many
/// tenant threads against a small worker pool and a smaller cache, checking
/// that every accepted request resolves, that identical requests produce
/// identical payloads whichever worker/batch/cache path served them, and
/// that the abort path unblocks clients without hanging.

#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/server.hpp"

namespace semfpga::service {
namespace {

SolveRequest request_of_key(int key) {
  SolveRequest request;
  request.mesh.degree = 2 + key;  // 3 distinct setup keys
  request.mesh.nelx = request.mesh.nely = request.mesh.nelz = 2;
  request.rhs_seed = 17;  // same forcing everywhere: payloads comparable per key
  request.max_iterations = 8;
  request.tolerance = 0.0;
  request.return_solution = true;
  return request;
}

TEST(ServiceStress, ConcurrentTenantsAllResolveWithIdenticalPayloadsPerKey) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  constexpr int kKeys = 3;

  ServerConfig config;
  config.workers = 4;
  config.queue_capacity = 256;  // no rejections: every future must solve
  config.cache_capacity = 2;    // smaller than the key set: eviction churn
  config.max_batch = 3;
  SolveServer server(config);

  std::vector<std::vector<std::future<SolveResponse>>> futures(kClients);
  std::vector<std::thread> tenants;
  tenants.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    tenants.emplace_back([&server, &futures, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futures[static_cast<std::size_t>(c)].push_back(
            server.submit(request_of_key((c + i) % kKeys)));
      }
    });
  }
  for (std::thread& t : tenants) {
    t.join();
  }

  // One reference payload per key; every response for that key must match
  // it bitwise, whatever worker, batch, or cache state served it.
  std::vector<SolveResponse> reference(kKeys);
  std::vector<bool> seen(kKeys, false);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const int key = (c + i) % kKeys;
      const SolveResponse response =
          futures[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)].get();
      ASSERT_EQ(response.outcome, Outcome::kSolved);
      EXPECT_TRUE(std::isfinite(response.setup_seconds));
      EXPECT_GE(response.setup_seconds, 0.0);
      if (!seen[static_cast<std::size_t>(key)]) {
        reference[static_cast<std::size_t>(key)] = response;
        seen[static_cast<std::size_t>(key)] = true;
        continue;
      }
      const SolveResponse& want = reference[static_cast<std::size_t>(key)];
      EXPECT_EQ(response.iterations, want.iterations);
      EXPECT_EQ(response.final_residual, want.final_residual);
      ASSERT_EQ(response.solution.size(), want.solution.size());
      for (std::size_t p = 0; p < response.solution.size(); ++p) {
        ASSERT_EQ(response.solution[p], want.solution[p]);
      }
    }
  }

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.solved, kClients * kPerClient);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GE(server.cache().evictions(), 1);  // the churn actually happened
}

TEST(ServiceStress, AbortStopUnblocksEveryClient) {
  ServerConfig config;
  config.workers = 0;  // nothing drains the queue
  config.queue_capacity = 32;
  SolveServer server(config);
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(request_of_key(i % 3)));
  }
  server.stop(/*drain=*/false);
  for (auto& future : futures) {
    EXPECT_EQ(future.get().outcome, Outcome::kRejected);
  }
}

TEST(ServiceStress, DestructorDrainsOutstandingWork) {
  std::future<SolveResponse> future;
  {
    ServerConfig config;
    config.workers = 2;
    SolveServer server(config);
    future = server.submit(request_of_key(0));
  }  // ~SolveServer stops with drain
  EXPECT_EQ(future.get().outcome, Outcome::kSolved);
}

}  // namespace
}  // namespace semfpga::service
