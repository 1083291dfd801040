/// Admission control and dispatch triage: reject-on-full is a typed error,
/// close() turns pushes into ServiceStoppedError, pop_batch coalesces
/// same-key requests in FIFO order, and scripted reject@/timeout@ faults
/// surface as the same rejected/expired outcomes real overload would.

#include <cmath>
#include <future>
#include <stdexcept>

#include <gtest/gtest.h>

#include "service/queue.hpp"
#include "service/server.hpp"

namespace semfpga::service {
namespace {

SolveRequest small_request(int degree = 2) {
  SolveRequest request;
  request.mesh.degree = degree;
  request.mesh.nelx = request.mesh.nely = request.mesh.nelz = 2;
  request.max_iterations = 5;
  return request;
}

PendingSolve pending_for(std::int64_t id, int degree) {
  PendingSolve pending;
  pending.id = id;
  pending.request = small_request(degree);
  pending.key = key_of(pending.request.mesh, pending.request.kind,
                       pending.request.lambda);
  return pending;
}

TEST(RequestQueue, RejectsBeyondCapacityWithATypedError) {
  RequestQueue queue(/*capacity=*/2, /*faults=*/nullptr);
  queue.push(pending_for(0, 2));
  queue.push(pending_for(1, 2));
  try {
    queue.push(pending_for(2, 2));
    FAIL() << "expected QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueue, ClosedQueueRefusesPushesAndDrainsEmpty) {
  RequestQueue queue(4, nullptr);
  queue.push(pending_for(0, 2));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_THROW(queue.push(pending_for(1, 2)), ServiceStoppedError);
  EXPECT_EQ(queue.drain().size(), 1u);
  EXPECT_EQ(queue.size(), 0u);
  // pop_batch on a closed, drained queue returns empty without blocking.
  EXPECT_TRUE(queue.pop_batch(4, 0.0).empty());
}

TEST(RequestQueue, PopBatchCoalescesSameKeyRequestsInFifoOrder) {
  RequestQueue queue(8, nullptr);
  queue.push(pending_for(0, 2));  // key A
  queue.push(pending_for(1, 3));  // key B
  queue.push(pending_for(2, 2));  // key A again

  const auto first = queue.pop_batch(/*max_batch=*/4, 0.0);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].id, 0);
  EXPECT_EQ(first[1].id, 2);  // coalesced past the B in between

  const auto second = queue.pop_batch(4, 0.0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 1);
}

TEST(RequestQueue, BatchCapLeavesTheRestQueued) {
  RequestQueue queue(8, nullptr);
  for (int i = 0; i < 3; ++i) {
    queue.push(pending_for(i, 2));
  }
  EXPECT_EQ(queue.pop_batch(/*max_batch=*/2, 0.0).size(), 2u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(SolveServer, ScriptedRejectAndTimeoutFaultsBecomeOutcomes) {
  ServerConfig config;
  config.workers = 1;
  config.max_batch = 1;
  // Request ids are the fault "iteration" coordinate: reject id 1 at
  // admission, expire id 2 at dequeue.
  config.faults = "reject@r0:i1,timeout@r0:i2";
  SolveServer server(config);

  std::future<SolveResponse> ok = server.submit(small_request());
  EXPECT_THROW((void)server.submit(small_request()), QueueFullError);
  std::future<SolveResponse> doomed = server.submit(small_request());

  const SolveResponse solved = ok.get();
  EXPECT_EQ(solved.outcome, Outcome::kSolved);
  EXPECT_TRUE(solved.converged || solved.iterations == 5);
  EXPECT_TRUE(std::isfinite(solved.setup_seconds));
  EXPECT_GE(solved.setup_seconds, 0.0);

  const SolveResponse expired = doomed.get();
  EXPECT_EQ(expired.outcome, Outcome::kExpired);
  EXPECT_EQ(expired.error, "expired by timeout fault");

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.expired, 1);
  ASSERT_EQ(server.fault_events().size(), 2u);
}

TEST(SolveServer, PastDeadlineRequestsExpireAtDequeue) {
  ServerConfig config;
  config.workers = 0;  // manual mode: the wait is whatever we make it
  SolveServer server(config);
  SolveRequest request = small_request();
  request.deadline_seconds = 1e-12;  // already stale by dispatch time
  std::future<SolveResponse> future = server.submit(request);
  EXPECT_EQ(server.run_once(), 1u);
  const SolveResponse response = future.get();
  EXPECT_EQ(response.outcome, Outcome::kExpired);
  EXPECT_EQ(response.error, "deadline exceeded");
  EXPECT_GT(response.queue_seconds, 0.0);
  server.stop();
}

TEST(SolveServer, StopRejectsStillQueuedRequests) {
  ServerConfig config;
  config.workers = 0;
  SolveServer server(config);
  std::future<SolveResponse> future = server.submit(small_request());
  server.stop();
  const SolveResponse response = future.get();
  EXPECT_EQ(response.outcome, Outcome::kRejected);
  EXPECT_EQ(response.error, "service stopped");
  EXPECT_THROW((void)server.submit(small_request()), ServiceStoppedError);
}

TEST(SolveServer, MalformedRequestsFailValidationUpFront) {
  ServerConfig config;
  config.workers = 0;
  SolveServer server(config);
  SolveRequest bad = small_request();
  bad.max_iterations = 0;
  EXPECT_THROW((void)server.submit(bad), std::invalid_argument);
  bad = small_request();
  bad.tolerance = -1.0;
  EXPECT_THROW((void)server.submit(bad), std::invalid_argument);
  server.stop();
}

TEST(Outcome, NamesAreStable) {
  EXPECT_STREQ(outcome_name(Outcome::kSolved), "solved");
  EXPECT_STREQ(outcome_name(Outcome::kRejected), "rejected");
  EXPECT_STREQ(outcome_name(Outcome::kExpired), "expired");
  EXPECT_STREQ(outcome_name(Outcome::kFailed), "failed");
}

}  // namespace
}  // namespace semfpga::service
